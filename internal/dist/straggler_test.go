package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"agnn/internal/dist/faults"
	"agnn/internal/obs"
	"agnn/internal/obs/evlog"
	"agnn/internal/obs/flight"
	"agnn/internal/obs/metrics"
)

// TestWaitHistogramRecordsBlockedRecvs: a rank made slow by an injected
// delay forces its peers to block in Recv; the peers' superstep wait must
// land in their per-rank histograms.
func TestWaitHistogramRecordsBlockedRecvs(t *testing.T) {
	const p = 4
	before := make([]int64, p)
	for r := 0; r < p; r++ {
		before[r] = metrics.RankWaitSeconds.With(strconv.Itoa(r)).Count()
	}

	Run(p, func(c *Comm) {
		if c.Rank() == 2 {
			time.Sleep(20 * time.Millisecond) // the deliberate straggler
		}
		for i := 0; i < 3; i++ {
			c.Allreduce(make([]float64, 8))
		}
	})

	sawWait := false
	for r := 0; r < p; r++ {
		h := metrics.RankWaitSeconds.With(strconv.Itoa(r))
		if h.Count() == before[r] {
			t.Errorf("rank %d recorded no superstep waits", r)
		}
		if r != 2 && h.Sum() > 0.005 {
			sawWait = true
		}
	}
	if !sawWait {
		t.Error("no peer of the delayed rank accumulated visible wait time")
	}
}

// TestStragglerDetectionFlagsWaitingRank: with one rank consistently slow,
// its *peers* wait far beyond the median and must be flagged as straggler
// victims — counter incremented, flight event recorded with the wait,
// median and round payload.
func TestStragglerDetectionFlagsWaitingRank(t *testing.T) {
	const p = 4
	before := make([]int64, p)
	recBefore := make([]uint64, p)
	for r := 0; r < p; r++ {
		before[r] = metrics.StragglersTotal.With(strconv.Itoa(r)).Value()
		recBefore[r] = obs.Rank(r).Recorded()
	}

	// Ring pattern: rank 0 sleeps before sending, so rank 1 blocks hard in
	// Recv every superstep while ranks 2,3 exchange instantly — a sharp
	// max-vs-median wait split.
	Run(p, func(c *Comm) {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		for i := 0; i < 6; i++ {
			c.round()
			if c.Rank() == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			c.Send(right, make([]float64, 4))
			c.Recv(left)
		}
	})

	flagged := 0
	for r := 0; r < p; r++ {
		if metrics.StragglersTotal.With(strconv.Itoa(r)).Value() > before[r] {
			flagged++
			found := false
			for _, lane := range flight.Capture(evlog.Default, "manual").Lanes {
				for _, ev := range lane.Events {
					if lane.Rank == r && ev.Kind == "straggler" && ev.A > ev.B && ev.C > 0 {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("rank %d flagged as straggler but has no straggler flight event", r)
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no rank flagged despite a 5ms/superstep stall")
	}
	// The gauge is only set on supersteps with a non-zero median wait; when
	// set it must report max ≥ median.
	if v := metrics.WaitImbalanceRatio.Value(); v != 0 && v < 1 {
		t.Errorf("imbalance gauge %v, want >= 1 when set", v)
	}
	for r := 0; r < p; r++ {
		if obs.Rank(r).Recorded() == recBefore[r] {
			t.Errorf("rank %d recorded no flight events", r)
		}
	}
}

// TestCrashWritesFlightDump is the postmortem acceptance path at the dist
// layer: an injected crash must produce a dump artifact naming the failed
// rank and its last superstep, with that rank's lane holding the preceding
// superstep events.
func TestCrashWritesFlightDump(t *testing.T) {
	dir := t.TempDir()
	prev := flight.SetDumpDir(dir)
	defer flight.SetDumpDir(prev)

	const p, victim, crashRound = 4, 1, 3
	inj := faults.New(faults.Spec{Clauses: []faults.Clause{{
		Kind: faults.Crash, Rank: victim, Round: crashRound,
	}}}, 1, p)
	_, errs, err := TryRun(p, Options{Faults: inj, RecvTimeout: 5 * time.Second}, func(c *Comm) error {
		for i := 0; i < 6; i++ {
			c.Allreduce(make([]float64, 4))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first := FirstError(errs); !errors.Is(first, ErrRankFailed) {
		t.Fatalf("expected rank failure, got %v", first)
	}

	matches, err := filepath.Glob(filepath.Join(dir, "flight-rank-failure-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one dump, got %v (%v)", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var d flight.Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if d.FailedRank == nil || *d.FailedRank != victim {
		t.Fatalf("dump names rank %v, want %d", d.FailedRank, victim)
	}
	if d.LastSuperstep == nil || *d.LastSuperstep != crashRound {
		t.Fatalf("dump names superstep %v, want %d", d.LastSuperstep, crashRound)
	}
	var lane *flight.LaneDump
	for i := range d.Lanes {
		if d.Lanes[i].Rank == victim {
			lane = &d.Lanes[i]
		}
	}
	if lane == nil {
		t.Fatal("failed rank has no lane in the dump")
	}
	super, failure := false, false
	for _, ev := range lane.Events {
		switch ev.Kind {
		case "superstep":
			super = true
		case "failure":
			if ev.A == crashRound {
				failure = true
			}
		}
	}
	if !super || !failure {
		t.Fatalf("victim lane missing superstep (%v) or failure (%v) events", super, failure)
	}
}

// netCrashRun runs p ranks over loopback TCP endpoints, each its own
// NetWorld with its own injector, through six allreduces with rank victim
// crashing at round crashRound, and returns every rank's error.
func netCrashRun(t *testing.T, p, victim int, crashRound int64) []error {
	t.Helper()
	spec := faults.Spec{Clauses: []faults.Clause{{Kind: faults.Crash, Rank: victim, Round: crashRound}}}
	eps := dialTCPWorld(t, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// One injector per rank, as each process of a job builds its own.
			w, err := NewNetWorld(eps[r], Options{Faults: faults.New(spec, 1, p), RecvTimeout: 20 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			_, errs[r] = w.TryRunLocal(func(c *Comm) error {
				for i := 0; i < 6; i++ {
					c.Allreduce(make([]float64, 4))
				}
				return nil
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("rank %d: %v, want ErrRankFailed", r, err)
		}
	}
	return errs
}

// TestNetCrashSurvivorErrorNamesSentinelOnce: over loopback TCP, a
// survivor's error names the sentinel once — not once more for the FAIL
// frame's text, the endpoint's handler and the survivor's unwind — reports
// a FAIL frame at most once, relayed or not, and still names the crashed
// rank and the injected cause.
func TestNetCrashSurvivorErrorNamesSentinelOnce(t *testing.T) {
	const p, victim = 3, 1
	for r, err := range netCrashRun(t, p, victim, 3) {
		msg := err.Error()
		if n := strings.Count(msg, "rank failed"); n != 1 {
			t.Errorf("rank %d: %q names the sentinel %d times, want once", r, msg, n)
		}
		if n := strings.Count(msg, "reported failed"); n > 1 {
			t.Errorf("rank %d: %q reports the FAIL frame %d times, want at most once", r, msg, n)
		}
		if !strings.Contains(msg, fmt.Sprintf("rank %d", victim)) || !strings.Contains(msg, "injected crash") {
			t.Errorf("rank %d: %q does not name rank %d and the injected crash", r, msg, victim)
		}
	}
}

// TestNetCrashSurvivorDumpsNameSuperstep: over a loopback TCP world, where
// each rank's World holds only its own counters, every process's
// rank-failure dump — the victim's and each survivor's — names the crashed
// rank and a superstep the run actually reached.
func TestNetCrashSurvivorDumpsNameSuperstep(t *testing.T) {
	dir := t.TempDir()
	prev := flight.SetDumpDir(dir)
	defer flight.SetDumpDir(prev)

	const p, victim = 3, 1
	netCrashRun(t, p, victim, 3)

	// A survivor may unwind before its failure handler has finished the
	// dump, so wait for one readable dump per rank.
	var dumps []flight.Dump
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		dumps = dumps[:0]
		matches, _ := filepath.Glob(filepath.Join(dir, "flight-rank-failure-*.json"))
		for _, m := range matches {
			var d flight.Dump
			if raw, err := os.ReadFile(m); err == nil && json.Unmarshal(raw, &d) == nil {
				dumps = append(dumps, d)
			}
		}
		if len(dumps) == p || time.Now().After(deadline) {
			break
		}
	}
	if len(dumps) != p {
		t.Fatalf("%d readable rank-failure dumps, want one per rank (%d)", len(dumps), p)
	}
	for i, d := range dumps {
		rank, at := -1, int64(-1) // -1: not named
		if d.FailedRank != nil {
			rank = *d.FailedRank
		}
		if d.LastSuperstep != nil {
			at = *d.LastSuperstep
		}
		if rank != victim || at < 1 {
			t.Errorf("dump %d names rank %d at superstep %d, want rank %d at a superstep >= 1", i, rank, at, victim)
		}
	}
}
