package obs

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"agnn/internal/obs/evlog"
)

// recordingSet returns a private set with recording on, so a test's records
// are the only ones its readers see.
func recordingSet() *evlog.Set {
	s := evlog.NewSet(64)
	s.StartRecording()
	return s
}

// collective writes one collective record with explicit times.
func collective(l *Log, name string, t0, dur, bytes, msgs int64) {
	l.Record(evlog.KindCollective, Code(name), t0, dur, bytes, msgs, 0)
}

func TestSpanNesting(t *testing.T) {
	main := recordingSet().Log(-1)
	outer := main.Start("outer")
	inner := main.Start("inner")
	inner.End()
	outer.End()

	evs := main.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// End order: inner completes first.
	in, out := evs[0], evs[1]
	if in.Name() != "inner" || out.Name() != "outer" {
		t.Fatalf("event order wrong: %q, %q", in.Name(), out.Name())
	}
	if in.T0 < out.T0 {
		t.Fatalf("inner must not start before outer: %v vs %v", in.T0, out.T0)
	}
	if in.T0+in.Dur > out.T0+out.Dur {
		t.Fatalf("inner must end before outer: inner ends %v, outer ends %v",
			in.T0+in.Dur, out.T0+out.Dur)
	}
}

func TestConcurrentRanksDisjointTracks(t *testing.T) {
	StartRecording()
	defer StopRecording()

	const p = 8
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			Bind(Rank(rank))
			defer Unbind()
			for i := 0; i < 10; i++ {
				// Package-level Start must resolve to this rank's log.
				Start("step").EndWith(int64(rank), 0, 0)
			}
		}(r)
	}
	wg.Wait()

	if got := len(lanes(evlog.Default)); got != p+1 { // + main
		t.Fatalf("got %d tracks, want %d", got, p+1)
	}
	if n := len(Main().Events()); n != 0 {
		t.Fatalf("main log has %d stray events", n)
	}
	for r := 0; r < p; r++ {
		evs := Rank(r).Events()
		if len(evs) != 10 {
			t.Fatalf("rank %d: got %d events, want 10", r, len(evs))
		}
		for _, e := range evs {
			if e.A != int64(r) {
				t.Fatalf("rank %d: event leaked from another goroutine: %+v", r, e)
			}
		}
	}
}

func TestDisabledPathDoesNotAllocate(t *testing.T) {
	StopRecording()
	allocs := testing.AllocsPerRun(200, func() {
		sp := Start("hot")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("unrecorded span path allocates %.1f times per op, want 0", allocs)
	}
	// Handles on no log are free too.
	var l *Log
	allocs = testing.AllocsPerRun(200, func() {
		sp := l.Start("hot")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-log span path allocates %.1f times per op, want 0", allocs)
	}
	// And a span on a log whose set is not recording reaches the ring alone.
	l = evlog.NewSet(64).Log(0)
	allocs = testing.AllocsPerRun(200, func() {
		sp := l.Start("hot")
		sp.End()
	})
	if allocs != 0 || len(l.Events()) != 0 || l.Recorded() == 0 {
		t.Fatalf("always-on span: %.1f allocs/op, %d logged, %d in the ring", allocs, len(l.Events()), l.Recorded())
	}
}

func TestReportAggregation(t *testing.T) {
	set := recordingSet()
	const ms = int64(time.Millisecond)
	for i := int64(0); i < 3; i++ {
		collective(set.Log(0), "allreduce", 2*i*ms, ms, 100, 2)
	}
	collective(set.Log(1), "allreduce", 0, 2*ms, 50, 1)
	set.Log(1).Record(evlog.KindSpan, Code("spmm"), 2*ms, ms, 0, 0, 0)

	rep := buildReport(set)
	stats := map[string]SpanStat{}
	for _, s := range rep.Spans {
		stats[s.Name] = s
	}
	ar := stats["allreduce"]
	if ar.Count != 4 {
		t.Fatalf("allreduce count = %d, want 4", ar.Count)
	}
	if ar.Attrs["bytes"] != 350 || ar.Attrs["msgs"] != 7 {
		t.Fatalf("allreduce attrs wrong: %v", ar.Attrs)
	}
	if ar.TotalNs != 5*ms || ar.MaxNs != 2*ms {
		t.Fatalf("allreduce timing stats wrong: %+v", ar)
	}
	if stats["spmm"].Count != 1 {
		t.Fatalf("spmm count = %d, want 1", stats["spmm"].Count)
	}
	if len(rep.Tracks) != 3 {
		t.Fatalf("got %d track stats, want 3", len(rep.Tracks))
	}
	byTrack := map[string]TrackStat{}
	for _, ts := range rep.Tracks {
		byTrack[ts.Track] = ts
	}
	if byTrack["rank 0"].Attrs["bytes"] != 300 || byTrack["rank 1"].Attrs["bytes"] != 50 {
		t.Fatalf("per-rank byte totals wrong: %v", byTrack)
	}
}

// TestReportCountsOpenSpans: a live snapshot must not silently drop spans
// that are still in flight — they show up in the per-track open count.
func TestReportCountsOpenSpans(t *testing.T) {
	set := recordingSet()
	r0 := set.Log(0)
	done := r0.Start("allreduce")
	done.End()
	inFlight := r0.Start("spmm") // never ended before the snapshot
	alsoInFlight := set.Log(-1).Start("epoch")

	rep := buildReport(set)
	byTrack := map[string]TrackStat{}
	for _, ts := range rep.Tracks {
		byTrack[ts.Track] = ts
	}
	if got := byTrack["rank 0"]; got.Spans != 1 || got.Open != 1 {
		t.Fatalf("rank 0 stats = %+v, want 1 completed + 1 open", got)
	}
	if got := byTrack["main"]; got.Spans != 0 || got.Open != 1 {
		t.Fatalf("main stats = %+v, want 0 completed + 1 open", got)
	}

	// After the spans end, a fresh snapshot reports them closed.
	inFlight.End()
	alsoInFlight.End()
	rep = buildReport(set)
	for _, ts := range rep.Tracks {
		if ts.Open != 0 {
			t.Fatalf("track %q still reports %d open spans after End", ts.Track, ts.Open)
		}
	}
	// And the open count survives the JSON round trip.
	set2 := recordingSet()
	set2.Log(-1).Start("pending") // left open
	var buf bytes.Buffer
	if err := buildReport(set2).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Tracks) != 1 || parsed.Tracks[0].Open != 1 {
		t.Fatalf("open count lost in round trip: %+v", parsed.Tracks)
	}
}

// TestReportCountsDroppedEvents: what the recorded log refuses at its cap
// is counted and reported, and the ring still has it.
func TestReportCountsDroppedEvents(t *testing.T) {
	set := recordingSet()
	l := set.Log(0)
	for i := 0; i < evlog.MaxRecorded+3; i++ {
		l.Record(evlog.KindSpan, 0, int64(i), 1, 0, 0, 0)
	}
	if got := len(l.Events()); got != evlog.MaxRecorded {
		t.Fatalf("recorded log holds %d events, want the cap %d", got, evlog.MaxRecorded)
	}
	rep := buildReport(set)
	if rep.DroppedEvents != 3 {
		t.Fatalf("dropped_events = %d, want 3", rep.DroppedEvents)
	}
	if ring := l.Ring(); ring[len(ring)-1].Seq != evlog.MaxRecorded+3 {
		t.Fatalf("ring's newest event is %d, want %d", ring[len(ring)-1].Seq, evlog.MaxRecorded+3)
	}
}

func TestSampleDisabledIsNoop(t *testing.T) {
	StopRecording()
	before := Main().Recorded()
	allocs := testing.AllocsPerRun(200, func() { Sample("arena bytes", 1) })
	if allocs != 0 || Main().Recorded() != before {
		t.Fatalf("unrecorded Sample: %.1f allocs/op, %d records, want none", allocs, Main().Recorded()-before)
	}
}

func TestReportRoundTrip(t *testing.T) {
	set := recordingSet()
	collective(set.Log(-1), "work", 0, 5, 7, 1)
	path := t.TempDir() + "/report.json"
	if err := buildReport(set).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) != 1 || rep.Spans[0].Name != "work" || rep.Spans[0].Attrs["bytes"] != 7 {
		t.Fatalf("round-tripped report wrong: %+v", rep)
	}
}

func TestCLIWritesAllOutputs(t *testing.T) {
	dir := t.TempDir()
	c := CLI{
		Trace:      dir + "/trace.json",
		Metrics:    dir + "/metrics.json",
		CPUProfile: dir + "/cpu.pprof",
		MemProfile: dir + "/mem.pprof",
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if !Recording() {
		t.Fatal("CLI.Start did not switch recording on")
	}
	sp := Start("work")
	time.Sleep(time.Millisecond)
	sp.End()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if Recording() {
		t.Fatal("CLI.Stop did not switch recording off")
	}
	for _, p := range []string{c.Trace, c.Metrics, c.CPUProfile, c.MemProfile} {
		if fi, err := osStat(p); err != nil || fi == 0 {
			t.Fatalf("output %s missing or empty (err %v, size %d)", p, err, fi)
		}
	}
	rep, err := ReadReportFile(c.Metrics)
	if err != nil || len(rep.Spans) != 1 || rep.Spans[0].Name != "work" {
		t.Fatalf("run-report does not hold the recorded span: %+v (err %v)", rep, err)
	}
}
