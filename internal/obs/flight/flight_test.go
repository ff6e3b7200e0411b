package flight

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"agnn/internal/obs/evlog"
)

// lane returns the dump of one rank's ring in a capture of s.
func lane(t *testing.T, s *evlog.Set, rank int) LaneDump {
	t.Helper()
	for _, l := range Capture(s, "manual").Lanes {
		if l.Rank == rank {
			return l
		}
	}
	t.Fatalf("no lane for rank %d", rank)
	return LaneDump{}
}

func TestCodeInternAndResolve(t *testing.T) {
	a := evlog.Code("spmm")
	b := evlog.Code("mm")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("codes must be distinct and non-zero: %d %d", a, b)
	}
	if evlog.Code("spmm") != a {
		t.Fatal("re-interning must be stable")
	}
	if evlog.CodeName(a) != "spmm" || evlog.CodeName(b) != "mm" {
		t.Fatalf("resolve: %q %q", evlog.CodeName(a), evlog.CodeName(b))
	}
	if evlog.CodeName(0) != "" || evlog.CodeName(1<<30) != "" {
		t.Fatal("unknown codes must resolve to empty")
	}
}

func TestRecordAndEventsOrdered(t *testing.T) {
	s := evlog.NewSet(8)
	l := s.Log(3)
	c := evlog.Code("test-ev")
	for i := int64(1); i <= 5; i++ {
		l.Record(evlog.KindSuperstep, c, l.Now(), 0, i, i*10, 0)
	}
	evs := lane(t, s, 3).Events
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.A != int64(i+1) || ev.Kind != "superstep" || ev.Name != "test-ev" {
			t.Fatalf("event %d wrong: %+v", i, ev)
		}
		if i > 0 && evs[i-1].Seq >= ev.Seq {
			t.Fatal("events must be seq-ordered")
		}
	}
	if l.Rank() != 3 {
		t.Fatalf("rank = %d", l.Rank())
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	s := evlog.NewSet(4)
	l := s.Log(0)
	for i := int64(1); i <= 10; i++ {
		l.Record(evlog.KindSpan, 0, 0, i, 0, 0, 0) // a span's A is its duration
	}
	evs := lane(t, s, 0).Events
	if len(evs) != 4 {
		t.Fatalf("ring must cap at 4, got %d", len(evs))
	}
	for i, ev := range evs {
		if want := int64(7 + i); ev.A != want {
			t.Fatalf("event %d = %d, want %d (most recent survive)", i, ev.A, want)
		}
	}
	if d := lane(t, s, 0); d.Recorded != 10 {
		t.Fatalf("recorded = %d, want 10 (the dump says how many the ring lost)", d.Recorded)
	}
}

func TestNilLaneIsInert(t *testing.T) {
	var l *evlog.Log
	l.Record(evlog.KindSpan, 0, 0, 1, 2, 3, 0) // must not panic
	if l.Ring() != nil || l.Events() != nil || l.Recorded() != 0 || l.Rank() != -1 {
		t.Fatal("nil log must be a no-op")
	}
}

func TestRecordZeroAllocs(t *testing.T) {
	s := evlog.NewSet(64)
	l := s.Log(0)
	c := evlog.Code("alloc-test")
	if n := testing.AllocsPerRun(100, func() {
		l.Record(evlog.KindSpan, c, 0, 1, 2, 3, 0)
	}); n != 0 {
		t.Fatalf("Record allocates: %v allocs/op", n)
	}
	// The cached-log lookup must also be allocation-free so hot paths that
	// re-resolve are still safe.
	if n := testing.AllocsPerRun(100, func() {
		s.Log(0).Record(evlog.KindSpan, c, 0, 1, 2, 3, 0)
	}); n != 0 {
		t.Fatalf("Log+Record allocates: %v allocs/op", n)
	}
}

func TestConcurrentRecordAndCapture(t *testing.T) {
	r := evlog.NewSet(32)
	var wg sync.WaitGroup
	for rank := 0; rank < 4; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			l := r.Log(rank)
			c := evlog.Code("race-ev")
			for i := int64(0); i < 2000; i++ {
				l.Record(evlog.KindCollective, c, 0, 0, i, 0, 0)
			}
		}(rank)
	}
	// Capture concurrently with the writers: the seqlock must keep every
	// surfaced event internally consistent (A is the only varying field).
	for i := 0; i < 20; i++ {
		d := Capture(r, "manual")
		for _, lane := range d.Lanes {
			for _, ev := range lane.Events {
				if ev.Kind != "comm" && ev.Kind != "unknown" {
					t.Fatalf("torn event surfaced: %+v", ev)
				}
			}
		}
	}
	wg.Wait()
	if got := len(Capture(r, "manual").Lanes); got != 4 {
		t.Fatalf("lanes = %d, want 4", got)
	}
}

func TestOnRankFailureWritesDump(t *testing.T) {
	dir := t.TempDir()
	prev := SetDumpDir(dir)
	defer SetDumpDir(prev)

	evlog.Default.Log(2).Record(evlog.KindSuperstep, evlog.Code("round"), 0, 0, 11, 0, 0)
	path := OnRankFailure(2, 12, errors.New("injected crash: rank=2 round=12"))
	if path == "" {
		t.Fatal("no dump written")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if d.Schema != DumpSchema || d.Reason != "rank-failure" {
		t.Fatalf("header wrong: %+v", d)
	}
	if d.FailedRank == nil || *d.FailedRank != 2 {
		t.Fatalf("failed rank not named: %+v", d.FailedRank)
	}
	if d.LastSuperstep == nil || *d.LastSuperstep != 12 {
		t.Fatalf("last superstep not named: %+v", d.LastSuperstep)
	}
	if !strings.Contains(d.Cause, "injected crash") {
		t.Fatalf("cause missing: %q", d.Cause)
	}
	found := false
	for _, lane := range d.Lanes {
		if lane.Rank != 2 {
			continue
		}
		for _, ev := range lane.Events {
			if ev.Kind == "failure" && ev.A == 12 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("failure event missing from failed rank's lane")
	}
}

func TestOnRankFailureNoDirStillRecords(t *testing.T) {
	prev := SetDumpDir("")
	defer SetDumpDir(prev)
	before := evlog.Default.Log(7).Recorded()
	if path := OnRankFailure(7, 3, nil); path != "" {
		t.Fatalf("dump written with no dir: %s", path)
	}
	if evlog.Default.Log(7).Recorded() != before+1 {
		t.Fatal("failure event not recorded")
	}
}

func TestHandlerServesDump(t *testing.T) {
	r := evlog.NewSet(8)
	r.Log(0).Record(evlog.KindCounter, evlog.Code("handler-ev"), 0, 0, 42, 0, 0)
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("body not a Dump: %v", err)
	}
	if d.Reason != "request" || len(d.Lanes) != 1 || d.Lanes[0].Events[0].A != 42 {
		t.Fatalf("dump wrong: %+v", d)
	}
}

func TestSignalDumpFallsBackWithoutDir(t *testing.T) {
	prev := SetDumpDir("")
	defer SetDumpDir(prev)
	// Just exercise the path; output goes to stderr.
	dumpOnSignal()

	dir := t.TempDir()
	SetDumpDir(dir)
	dumpOnSignal()
	matches, err := filepath.Glob(filepath.Join(dir, "flight-signal-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("signal dump not written: %v %v", matches, err)
	}
}

func TestWriteFileCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "flight")
	d := Capture(evlog.NewSet(4), "manual")
	path, err := d.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecord(b *testing.B) {
	l := evlog.NewSet(evlog.DefaultRingSize).Log(0)
	c := evlog.Code("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Record(evlog.KindOp, c, 0, int64(i), 64, 128, 0)
	}
}

// TestOnShutdownWritesDump: a clean shutdown with a configured dump dir
// must produce the same agnn-flight/v1 artifact as the crash path, with
// reason "shutdown" and the set's lanes intact.
func TestOnShutdownWritesDump(t *testing.T) {
	dir := t.TempDir()
	prev := SetDumpDir(dir)
	defer SetDumpDir(prev)

	evlog.Default.Log(3).Record(evlog.KindSpan, evlog.Code("serve-req"), 0, 7, 0, 0, 0)
	path := OnShutdown()
	if path == "" {
		t.Fatal("no shutdown dump written")
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump %s not in configured dir %s", path, dir)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if d.Schema != DumpSchema {
		t.Fatalf("schema %q, want %q", d.Schema, DumpSchema)
	}
	if d.Reason != "shutdown" {
		t.Fatalf("reason %q, want shutdown", d.Reason)
	}
	found := false
	for _, lane := range d.Lanes {
		if lane.Rank != 3 {
			continue
		}
		for _, ev := range lane.Events {
			if ev.Name == "serve-req" && ev.A == 7 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("recorded event missing from shutdown dump")
	}
}

// TestOnShutdownNoDirIsSilent: without a dump dir the clean-shutdown hook
// must be a no-op, not an error.
func TestOnShutdownNoDirIsSilent(t *testing.T) {
	prev := SetDumpDir("")
	defer SetDumpDir(prev)
	if path := OnShutdown(); path != "" {
		t.Fatalf("dump written with no dir: %s", path)
	}
}
