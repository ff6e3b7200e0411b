package faults

import (
	"strings"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	spec, err := Parse("crash:rank=3,round=12;delay:p=0.01,ms=5;drop:p=0.005,max=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Clauses) != 3 {
		t.Fatalf("parsed %d clauses, want 3", len(spec.Clauses))
	}
	c := spec.Clauses[0]
	if c.Kind != Crash || c.Rank != 3 || c.Round != 12 {
		t.Errorf("crash clause = %+v", c)
	}
	d := spec.Clauses[1]
	if d.Kind != Delay || d.P != 0.01 || d.Dur != 5*time.Millisecond || d.Rank != -1 {
		t.Errorf("delay clause = %+v", d)
	}
	dr := spec.Clauses[2]
	if dr.Kind != Drop || dr.P != 0.005 || dr.Max != 2 {
		t.Errorf("drop clause = %+v", dr)
	}
	if spec.MaxDrops() != 2 {
		t.Errorf("MaxDrops = %d, want 2", spec.MaxDrops())
	}
	// String() re-parses to the same clause set.
	spec2, err := Parse(spec.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", spec.String(), err)
	}
	if len(spec2.Clauses) != len(spec.Clauses) {
		t.Errorf("round trip changed clause count: %q", spec.String())
	}
}

func TestParseEmpty(t *testing.T) {
	spec, err := Parse("  ")
	if err != nil || !spec.Empty() {
		t.Fatalf("empty spec: %v %v", spec, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"boom:p=1",              // unknown kind
		"reorder:p=0.1",         // unknown kind
		"crash:rank=1",          // missing round
		"crash:round=4",         // missing rank
		"delay:p=0.5",           // missing ms
		"delay:p=2,ms=1",        // probability out of range
		"drop:max=3",            // missing p
		"drop:p=0.1,max=0",      // max < 1
		"delay:p=0.1,ms=1,x=2",  // unknown parameter
		"delay:p=zebra,ms=1",    // non-numeric
		"crash:rank=1,round=xy", // non-integer
		"delay:p 0.1",           // not key=value
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestDeterministicStreams: the same (spec, seed) pair replays identical
// per-rank decisions, and distinct ranks draw independent streams.
func TestDeterministicStreams(t *testing.T) {
	spec, err := Parse("drop:p=0.3,max=2;delay:p=0.2,ms=1")
	if err != nil {
		t.Fatal(err)
	}
	record := func() []SendAction {
		in := New(spec, 42, 4)
		var out []SendAction
		for r := 0; r < 4; r++ {
			for i := 1; i <= 16; i++ {
				out = append(out, in.OnSend(r, 1))
			}
		}
		return out
	}
	a, b := record(), record()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical injectors: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must eventually diverge.
	in2 := New(spec, 43, 4)
	diverged := false
	in1 := New(spec, 42, 4)
	for i := 0; i < 64 && !diverged; i++ {
		if in1.OnSend(0, 1) != in2.OnSend(0, 1) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("seeds 42 and 43 produced identical decision streams")
	}
}

// TestDropBoundedByMax: attempts beyond max are never dropped, so a sender
// with retries > max always gets through.
func TestDropBoundedByMax(t *testing.T) {
	spec, err := Parse("drop:p=1,max=2")
	if err != nil {
		t.Fatal(err)
	}
	in := New(spec, 7, 2)
	if !in.OnSend(0, 1).Drop || !in.OnSend(0, 2).Drop {
		t.Error("p=1 drop did not fire within max attempts")
	}
	if in.OnSend(0, 3).Drop {
		t.Error("drop fired beyond max attempts: retransmission can never succeed")
	}
}

// TestCrashFiresOnce: the crash clause fires at the first round >= target
// and never again — the rebuilt world after recovery must not re-crash.
func TestCrashFiresOnce(t *testing.T) {
	spec, err := Parse("crash:rank=1,round=5")
	if err != nil {
		t.Fatal(err)
	}
	in := New(spec, 0, 4)
	if in.CrashNow(1, 4) {
		t.Error("crashed before target round")
	}
	if in.CrashNow(0, 5) {
		t.Error("wrong rank crashed")
	}
	if !in.CrashNow(1, 5) {
		t.Error("rank 1 did not crash at round 5")
	}
	for round := int64(1); round < 10; round++ {
		if in.CrashNow(1, round) {
			t.Fatalf("crash re-fired at round %d after recovery", round)
		}
	}
}

func TestSpecStringContainsKinds(t *testing.T) {
	spec, _ := Parse("crash:rank=0,round=1;drop:p=0.5")
	s := spec.String()
	for _, want := range []string{"crash:", "drop:"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// FuzzParse: a fault spec is a string from a command line or an environment
// variable. Whatever it is, Parse returns a spec or an error — no panic —
// and a spec it accepts survives String → Parse with its clause count.
// Seeds: the round-trip and error tables above and in wire_test.go.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"crash:rank=3,round=12;delay:p=0.01,ms=5;drop:p=0.005,max=2",
		"conndrop:p=0.2,max=3;slowsock:p=0.5,ms=2,rank=1;partition:rank=0,ms=40",
		"  ", "boom:p=1", "delay:p 0.1", "delay:p=2,ms=1", "crash:rank=1,round=xy", "drop:max=3",
		"delay:p=1e309,ms=1e309", "crash:rank=99999999999999999999,round=1", ";;:=,=;",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not re-parse: %v", s, spec.String(), err)
		}
		if len(again.Clauses) != len(spec.Clauses) {
			t.Fatalf("Parse(%q): %d clauses, %d after String → Parse", s, len(spec.Clauses), len(again.Clauses))
		}
	})
}
