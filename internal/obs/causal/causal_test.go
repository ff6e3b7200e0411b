package causal

import (
	"testing"
	"time"

	"agnn/internal/obs/evlog"
)

// recordingSet returns a fresh set with recording on.
func recordingSet() *evlog.Set {
	s := evlog.NewSet(64)
	s.StartRecording()
	return s
}

// The records a dist rank leaves on its log, with explicit times.
func send(l *evlog.Log, t int64, h Header, dst int64) {
	l.Record(evlog.KindSend, 0, t, 0, int64(h.Seq), dst, h.Step)
}
func recv(l *evlog.Log, t0, t1 int64, h Header) {
	l.Record(evlog.KindRecv, 0, t0, t1-t0, int64(h.Seq), int64(h.Src), h.Step)
}
func markEpoch(l *evlog.Log, n, t0, t1 int64) {
	l.Record(evlog.KindEpoch, evlog.Code("epoch"), t0, t1-t0, n, 0, 0)
}
func markCheckpoint(l *evlog.Log, t0, t1 int64) {
	l.Record(evlog.KindCheckpoint, evlog.Code("checkpoint"), t0, t1-t0, 0, 0, 0)
}
func span(l *evlog.Log, name string, t0, t1 int64) {
	l.Record(evlog.KindSpan, evlog.Code(name), t0, t1-t0, 0, 0, 0)
}

func TestFlowIDPacksSrcAndSeq(t *testing.T) {
	h := Header{Src: 3, Seq: 41}
	want := uint64(3)<<40 | 41
	if h.FlowID() != want {
		t.Fatalf("FlowID = %#x, want %#x", h.FlowID(), want)
	}
	if (Header{Src: 3, Seq: 42}).FlowID() == h.FlowID() {
		t.Fatal("distinct seqs must yield distinct flow ids")
	}
	if (Header{Src: 4, Seq: 41}).FlowID() == h.FlowID() {
		t.Fatal("distinct src ranks must yield distinct flow ids")
	}
}

func TestLogRankReuseAndEvents(t *testing.T) {
	s := recordingSet()
	if s.Log(2) != s.Log(2) {
		t.Fatal("Log must return a stable per-rank log")
	}
	rl := s.Log(0)
	send(rl, 10, Header{Src: 0, Seq: 1, Step: 2}, 1)
	recv(rl, 20, 30, Header{Src: 1, Seq: 7})
	markEpoch(rl, 3, 0, 100)
	markCheckpoint(rl, 40, 60)
	evs := rl.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Kind != evlog.KindSend || evs[0].B != 1 || evs[0].C != 2 {
		t.Fatalf("bad send event: %+v", evs[0])
	}
	if evs[1].Kind != evlog.KindRecv || evs[1].B != 1 || evs[1].A != 7 || evs[1].Dur != 10 {
		t.Fatalf("bad recv event: %+v", evs[1])
	}
	if evs[2].Kind != evlog.KindEpoch || evs[2].A != 3 {
		t.Fatalf("bad epoch mark: %+v", evs[2])
	}
	if evs[3].Kind != evlog.KindCheckpoint || evs[3].T0 != 40 {
		t.Fatalf("bad checkpoint mark: %+v", evs[3])
	}
	// One window, one checkpoint inside it: the reader sees what was written.
	if sum := Analyze(s, Options{}); sum == nil || len(sum.Epochs) != 1 || sum.Epochs[0].Epoch != 3 || sum.CheckpointNs != 20 {
		t.Fatalf("analysis of the log: %+v", sum)
	}
}

// TestEnableDisable: the one recording switch gates what Analyze can see —
// nothing recorded while off, a restart empties the log.
func TestEnableDisable(t *testing.T) {
	s := evlog.NewSet(64)
	l := s.Log(0)
	markEpoch(l, 0, 0, 100)
	if s.Recording() || len(l.Events()) != 0 || Analyze(s, Options{}) != nil {
		t.Fatal("a set that is not recording must keep no log")
	}
	s.StartRecording()
	markEpoch(l, 0, 0, 100)
	s.StopRecording()
	markEpoch(l, 1, 100, 200)
	if sum := Analyze(s, Options{}); sum == nil || len(sum.Epochs) != 1 {
		t.Fatalf("recorded run: %+v", sum)
	}
	s.StartRecording()
	if len(l.Events()) != 0 {
		t.Fatal("StartRecording must empty the recorded log")
	}
}

// syntheticRun builds a 2-rank scenario: rank 1 computes [0,90µs] then
// runs a 5µs collective send finishing at 95µs; rank 0 computes
// [0,40µs], blocks on the recv from 40µs until the 100µs arrival, then
// computes [100µs,150µs]. The critical path must be rank 1 compute +
// collective → wait hop → rank 0 compute.
func syntheticRun(t *testing.T) *evlog.Set {
	t.Helper()
	const us = int64(time.Microsecond)
	s := recordingSet()
	h := Header{Src: 1, Seq: 1, Step: 1}
	send(s.Log(1), 95*us, h, 0)
	recv(s.Log(0), 40*us, 100*us, h)
	markEpoch(s.Log(0), 0, 0, 150*us)
	span(s.Log(0), "spmm", 0, 40*us)
	span(s.Log(0), "softmax", 100*us, 150*us)
	span(s.Log(1), "sddmm", 0, 90*us)
	span(s.Log(1), "allgather", 90*us, 95*us)
	return s
}

func TestAnalyzeBlockedRecvJumpsToSender(t *testing.T) {
	sum := Analyze(syntheticRun(t), Options{})
	if sum == nil {
		t.Fatal("nil summary")
	}
	const us = int64(time.Microsecond)
	if sum.Hops != 1 {
		t.Fatalf("hops = %d, want 1", sum.Hops)
	}
	if sum.PathNs != 150*us {
		t.Fatalf("path = %d, want %d", sum.PathNs, 150*us)
	}
	if sum.Coverage < 0.999 || sum.Coverage > 1.001 {
		t.Fatalf("coverage = %f, want 1.0", sum.Coverage)
	}
	// Time-contiguous segments spanning the whole window.
	if sum.Segments[0].StartNs != 0 || sum.Segments[len(sum.Segments)-1].EndNs != 150*us {
		t.Fatalf("segments do not span window: %+v", sum.Segments)
	}
	for i := 1; i < len(sum.Segments); i++ {
		if sum.Segments[i].StartNs != sum.Segments[i-1].EndNs {
			t.Fatalf("segment gap at %d: %+v", i, sum.Segments)
		}
	}
	classNs := map[string]int64{}
	names := map[string]int64{}
	for _, s := range sum.Segments {
		classNs[s.Class] += s.EndNs - s.StartNs
		names[s.Name] += s.EndNs - s.StartNs
		if s.Class == ClassCompute && s.Rank == 0 && s.StartNs < 40*us && s.Name != "spmm" {
			t.Fatalf("early rank-0 compute misattributed: %+v", s)
		}
	}
	// Path: rank1 sddmm 90µs + allgather 5µs → 5µs wait (send done at
	// 95µs, arrival at 100µs) → rank0 softmax 50µs.
	if names["sddmm"] != 90*us || names["allgather"] != 5*us || names["softmax"] != 50*us {
		t.Fatalf("bad attribution: %v", names)
	}
	if classNs[ClassCollective] != 5*us || classNs[ClassWait] != 5*us {
		t.Fatalf("collective/wait ns: %v", classNs)
	}
	// Rank 0's spans include 40µs of off-path spmm; it must NOT be on the path.
	if names["spmm"] != 0 {
		t.Fatalf("off-path spmm appeared on the path: %v", names)
	}
	if sum.ComputeNs+sum.CollectiveNs+sum.WaitNs+sum.CheckpointNs != sum.PathNs {
		t.Fatal("class totals do not sum to path")
	}
	// Rank 0 blocked 60µs out of 150µs.
	if len(sum.PerRankWait) != 2 || sum.PerRankWait[0].BlockedNs != 60*us {
		t.Fatalf("per-rank wait: %+v", sum.PerRankWait)
	}
	if len(sum.Epochs) != 1 || sum.Epochs[0].WindowNs != 150*us {
		t.Fatalf("epochs: %+v", sum.Epochs)
	}
}

func TestAnalyzeWaitWithoutMatchingSend(t *testing.T) {
	const us = int64(time.Microsecond)
	s := recordingSet()
	// Recv with no recorded send (e.g. sender's log dropped): charge the
	// blocked time to the receiver as wait.
	recv(s.Log(0), 10*us, 90*us, Header{Src: 1, Seq: 9})
	markEpoch(s.Log(0), 0, 0, 100*us)
	sum := Analyze(s, Options{})
	if sum == nil {
		t.Fatal("nil summary")
	}
	if sum.WaitNs != 80*us {
		t.Fatalf("wait = %d, want %d", sum.WaitNs, 80*us)
	}
	if sum.Hops != 0 {
		t.Fatalf("hops = %d, want 0", sum.Hops)
	}
	if sum.PathNs != 100*us {
		t.Fatalf("path = %d, want window", sum.PathNs)
	}
}

func TestAnalyzeCheckpointClass(t *testing.T) {
	const us = int64(time.Microsecond)
	s := recordingSet()
	markCheckpoint(s.Log(0), 20*us, 70*us)
	markEpoch(s.Log(0), 0, 0, 100*us)
	sum := Analyze(s, Options{})
	if sum == nil {
		t.Fatal("nil summary")
	}
	if sum.CheckpointNs != 50*us {
		t.Fatalf("checkpoint ns = %d, want %d", sum.CheckpointNs, 50*us)
	}
}

func TestAnalyzeEmptyLog(t *testing.T) {
	if Analyze(recordingSet(), Options{}) != nil {
		t.Fatal("empty set must yield nil")
	}
	// Spans alone, or events on the process log alone, are no run to walk.
	s := recordingSet()
	span(s.Log(0), "spmm", 0, 10)
	markEpoch(s.Log(-1), 0, 0, 100)
	if Analyze(s, Options{}) != nil {
		t.Fatal("a set with no rank event must yield nil")
	}
}

func TestAnalyzeZeroDurationEventsTerminate(t *testing.T) {
	s := recordingSet()
	h := Header{Src: 0, Seq: 1}
	// Degenerate: all events at the same instant.
	send(s.Log(0), 50, h, 0)
	recv(s.Log(0), 50, 50, h)
	markEpoch(s.Log(0), 0, 0, 100)
	done := make(chan *Summary, 1)
	go func() { done <- Analyze(s, Options{}) }()
	select {
	case sum := <-done:
		if sum == nil {
			t.Fatal("nil summary")
		}
		if sum.PathNs != 100 {
			t.Fatalf("path = %d, want 100", sum.PathNs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Analyze did not terminate")
	}
}

func TestFlattenInnermostWins(t *testing.T) {
	ivs := flatten([]Span{
		{Name: "outer", T0: 0, T1: 100},
		{Name: "inner", T0: 20, T1: 60},
	})
	want := []flatIv{{0, 20, "outer"}, {20, 60, "inner"}, {60, 100, "outer"}}
	if len(ivs) != len(want) {
		t.Fatalf("got %v, want %v", ivs, want)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Fatalf("interval %d: got %v, want %v", i, ivs[i], want[i])
		}
	}
}

func TestSummaryTopContributors(t *testing.T) {
	sum := Analyze(syntheticRun(t), Options{TopK: 2})
	if len(sum.Top) != 2 {
		t.Fatalf("topk: %+v", sum.Top)
	}
	if sum.Top[0].Name != "sddmm" || sum.Top[0].Rank != 1 {
		t.Fatalf("top contributor: %+v", sum.Top[0])
	}
	if sum.Top[0].Pct < sum.Top[1].Pct {
		t.Fatal("top not sorted by share")
	}
}
