package dist

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	distnet "agnn/internal/dist/net"
	"agnn/internal/obs"
	"agnn/internal/obs/causal"
	"agnn/internal/obs/evlog"
	"agnn/internal/obs/metrics"
)

// recorded switches recording on for one test.
func recorded(t *testing.T) {
	t.Helper()
	obs.StartRecording()
	t.Cleanup(obs.StopRecording)
}

// messages returns the send or receive records of a rank's recorded log.
func messages(rank int, kind evlog.Kind) []evlog.Record {
	var out []evlog.Record
	for _, e := range obs.Rank(rank).Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Every send must appear in the sender's log and its stamped header in
// the receiver's, linkable via (source, sequence number); the receiver's
// recv interval must contain the send time.
func TestCausalStampingRecordsSendRecvPairs(t *testing.T) {
	recorded(t)
	cs := Run(2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, []float64{1, 2, 3})
			c.Send(1, []float64{4})
		case 1:
			c.Recv(0)
			c.Recv(0)
		}
	})
	sends := messages(0, evlog.KindSend)
	recvs := messages(1, evlog.KindRecv)
	if len(sends) != 2 || len(recvs) != 2 {
		t.Fatalf("got %d sends, %d recvs, want 2 and 2", len(sends), len(recvs))
	}
	for i := range sends {
		s, r := sends[i], recvs[i]
		if s.A != int64(i+1) {
			t.Errorf("send %d: seq %d, want %d", i, s.A, i+1)
		}
		if s.B != 1 {
			t.Errorf("send %d: peer %d, want 1", i, s.B)
		}
		if r.B != 0 || r.A != s.A || r.C != s.C {
			t.Errorf("recv %d: (peer,seq,step)=(%d,%d,%d) does not match send (0,%d,%d)",
				i, r.B, r.A, r.C, s.A, s.C)
		}
		if r.T0+r.Dur < s.T0 {
			t.Errorf("recv %d arrived at %d before send completed at %d", i, r.T0+r.Dur, s.T0)
		}
		if r.Dur < 0 {
			t.Errorf("recv %d: negative wait %d", i, r.Dur)
		}
	}
	// The bytes are counted once, in the rank's counters, not on the record.
	if cs[0].BytesSent != 32 || cs[0].MsgsSent != 2 {
		t.Errorf("rank 0 counters %+v, want 32 bytes in 2 messages", cs[0])
	}
}

// Collective messages must carry the collective's superstep and an
// interned code naming it, so the critical-path walk can attribute hops.
func TestCausalCollectiveMessagesCarryStepAndCode(t *testing.T) {
	recorded(t)
	Run(2, func(c *Comm) {
		c.Allreduce([]float64{float64(c.Rank())})
		c.Barrier()
	})
	evs := append(messages(0, evlog.KindSend), messages(0, evlog.KindRecv)...)
	if len(evs) == 0 {
		t.Fatal("no message records for rank 0")
	}
	names := map[string]bool{}
	var lastStep int64
	for _, e := range evs {
		names[e.Name()] = true
		lastStep = max(lastStep, e.C)
	}
	if !names["reduce_scatter"] || !names["barrier"] {
		t.Errorf("messages name collectives %v, want the innermost of each call", names)
	}
	// Barrier follows the allreduce rounds, so late messages must carry a
	// positive superstep.
	if lastStep == 0 {
		t.Errorf("final message superstep = 0, want > 0 (rounds advance stepNow)")
	}
}

// With recording off, messages must leave nothing — not even in the
// always-on ring (clocks still run).
func TestCausalDisabledRecordsNothing(t *testing.T) {
	obs.StopRecording()
	before := obs.Rank(0).Recorded() + obs.Rank(1).Recorded()
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, []float64{1})
		} else {
			c.Recv(0)
		}
	})
	if got := obs.Rank(0).Recorded() + obs.Rank(1).Recorded(); got != before {
		t.Fatalf("unrecorded messages left %d records", got-before)
	}
}

// The Send/Recv hot path must not allocate on a recorded run: the header
// travels by value and the log appends into its first allocation. Empty
// payloads keep the message copy itself allocation-free, isolating the
// stamping overhead.
func TestCausalStampedSendRecvZeroAlloc(t *testing.T) {
	recorded(t)
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Comm(0)
	payload := make([]float64, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Send(0, payload) // self-send: the mailbox buffers it
		c.Recv(0)
	})
	if allocs != 0 {
		t.Fatalf("stamped Send+Recv allocates %.1f times per op, want 0", allocs)
	}
	if got := len(obs.Rank(0).Events()); got != 2*1001 {
		t.Fatalf("recorded %d message records, want %d", got, 2*1001)
	}
}

// Same assertion with recording off — the baseline must not regress.
func TestUnstampedSendRecvZeroAlloc(t *testing.T) {
	obs.StopRecording()
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Comm(0)
	payload := make([]float64, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Send(0, payload)
		c.Recv(0)
	})
	if allocs != 0 {
		t.Fatalf("Send+Recv allocates %.1f times per op, want 0", allocs)
	}
}

// Chrome-trace flow events: a recorded run must emit one "s"/"f" pair per
// message, sharing an ID, on the sender and receiver rank tracks.
func TestCausalFlowEventsInChromeTrace(t *testing.T) {
	recorded(t)
	cs := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, []float64{1, 2})
		} else {
			c.Recv(0)
		}
	})
	if len(cs) != 2 {
		t.Fatalf("want 2 ranks, got %d", len(cs))
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph": "s"`, `"ph": "f"`, `"cat": "msg"`, `"bp": "e"`, `"id": "0x1"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, out)
		}
	}
}

// Straggler thresholds: a 3 ms wait against a cross-rank median near zero
// is past both the default floor and the default factor, so it is flagged.
func TestStragglerFloorTunable(t *testing.T) {
	const p = 4
	// Ring with one slow sender: rank 1 blocks ~3ms per superstep while
	// ranks 2,3 exchange instantly, so the cross-rank median stays near
	// zero. The per-rank straggler counters are process-global (metrics
	// registry), so compare deltas around the run.
	before := stragglerCount(p)
	_, errs, err := TryRun(p, Options{}, func(c *Comm) error {
		right, left := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		for i := 0; i < 4; i++ {
			c.round()
			if c.Rank() == 0 {
				time.Sleep(3 * time.Millisecond)
			}
			c.Send(right, []float64{1})
			c.Recv(left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := FirstError(errs); e != nil {
		t.Fatal(e)
	}
	if stragglerCount(p) == before {
		t.Errorf("3ms blocked wait above the %v floor not flagged as straggler", DefaultStragglerFloor)
	}
}

func stragglerCount(p int) int64 {
	var total int64
	for r := 0; r < p; r++ {
		total += metrics.StragglersTotal.With(strconv.Itoa(r)).Value()
	}
	return total
}

// TestNetWorldIsRecorded: a world wrapped around a transport endpoint — a
// TCP rank, a launcher worker — has the telemetry an in-process world has:
// under recording its rank's log holds the collective spans, the message
// pairs that draw as flow arrows, and its part of the critical path.
func TestNetWorldIsRecorded(t *testing.T) {
	recorded(t)
	const p = 2
	cw, err := distnet.NewChanWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := NewNetWorld(cw.Endpoint(rank), Options{RecvTimeout: 10 * time.Second})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := w.TryRunLocal(func(c *Comm) error {
				sp := c.Log().Begin(obs.KindEpoch, obs.Code("epoch"))
				c.Allreduce([]float64{float64(rank), 1})
				sp.End()
				return nil
			}); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()

	// Each rank's log: the allreduce span with its bytes, and sends whose
	// flow ids the peer's receives carry.
	flow := func(rank int, kind evlog.Kind) map[uint64]bool {
		ids := map[uint64]bool{}
		for _, m := range messages(rank, kind) {
			src := int32(rank)
			if kind == evlog.KindRecv {
				src = int32(m.B)
			}
			ids[causal.Header{Src: src, Seq: uint64(m.A)}.FlowID()] = true
		}
		return ids
	}
	for r := 0; r < p; r++ {
		var allreduce []evlog.Record
		for _, e := range obs.Rank(r).Events() {
			if e.Kind == evlog.KindCollective && e.Name() == "allreduce" {
				allreduce = append(allreduce, e)
			}
		}
		if len(allreduce) != 1 || allreduce[0].A == 0 || allreduce[0].B == 0 {
			t.Fatalf("rank %d: allreduce records %+v, want one carrying bytes and messages", r, allreduce)
		}
		sent, got := flow(r, evlog.KindSend), flow(1-r, evlog.KindRecv)
		if len(sent) == 0 || len(sent) != len(got) {
			t.Fatalf("rank %d sent %d messages, rank %d received %d", r, len(sent), 1-r, len(got))
		}
		for id := range sent {
			if !got[id] {
				t.Fatalf("rank %d's message %#x has no receive on rank %d", r, id, 1-r)
			}
		}
	}
	sum := obs.CriticalPath()
	if sum == nil || sum.Ranks != p || sum.PathNs == 0 || len(sum.Segments) == 0 {
		t.Fatalf("critical path of the net worlds: %+v", sum)
	}
	named := false
	for _, s := range sum.Segments {
		named = named || s.Class == "collective"
	}
	if !named {
		t.Fatalf("no critical-path segment is attributed to a collective span: %+v", sum.Segments)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "rank 0"`, `"name": "rank 1"`, `"name": "allreduce"`, `"ph": "s"`, `"ph": "f"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("chrome trace of the net worlds missing %s", want)
		}
	}
}
