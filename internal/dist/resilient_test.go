package dist

import (
	"errors"
	"testing"
	"time"

	"agnn/internal/dist/faults"
	"agnn/internal/obs/metrics"
)

// mustParse parses a fault spec or fails the test.
func mustParse(t *testing.T, s string) faults.Spec {
	t.Helper()
	spec, err := faults.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return spec
}

// TestCrashPropagatesToAllRanks is the core recovery contract: a seeded
// crash on one rank must surface as ErrRankFailed on EVERY rank — the
// crashed one and all survivors — with no deadlock.
func TestCrashPropagatesToAllRanks(t *testing.T) {
	for _, p := range []int{4, 16} {
		for _, victim := range []int{0, p / 2, p - 1} {
			inj := faults.New(mustParse(t, "crash:rank=2,round=3"), 1, p)
			// Re-target the victim via a fresh spec to vary the crash site.
			inj = faults.New(faults.Spec{Clauses: []faults.Clause{{
				Kind: faults.Crash, Rank: victim, Round: 3,
			}}}, 1, p)
			opts := Options{Faults: inj, RecvTimeout: 5 * time.Second}
			done := make(chan struct{})
			var errs []error
			var runErr error
			go func() {
				defer close(done)
				_, errs, runErr = TryRun(p, opts, func(c *Comm) error {
					// Enough supersteps that every rank passes round 3.
					for i := 0; i < 8; i++ {
						c.Allreduce(make([]float64, 4))
					}
					return nil
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("p=%d victim=%d: deadlock — ranks never returned", p, victim)
			}
			if runErr != nil {
				t.Fatalf("p=%d victim=%d: setup error: %v", p, victim, runErr)
			}
			for r, err := range errs {
				if err == nil {
					t.Errorf("p=%d victim=%d rank %d: nil error, want ErrRankFailed", p, victim, r)
					continue
				}
				if !errors.Is(err, ErrRankFailed) {
					t.Errorf("p=%d victim=%d rank %d: %v does not wrap ErrRankFailed", p, victim, r, err)
				}
			}
			if first := FirstError(errs); first == nil || !errors.Is(first, ErrRankFailed) {
				t.Errorf("p=%d victim=%d: FirstError = %v", p, victim, first)
			}
		}
	}
}

// TestCrashFiresOncePerInjector: after a recovery the same injector must not
// re-crash the rebuilt world, so the retried epoch completes.
func TestCrashFiresOncePerInjector(t *testing.T) {
	const p = 4
	inj := faults.New(mustParse(t, "crash:rank=1,round=2"), 7, p)
	opts := Options{Faults: inj, RecvTimeout: 5 * time.Second}

	_, errs, err := TryRun(p, opts, func(c *Comm) error {
		for i := 0; i < 4; i++ {
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if FirstError(errs) == nil {
		t.Fatal("first attempt should have failed")
	}

	// Second attempt with the SAME injector: the crash clause is spent.
	_, errs, err = TryRun(p, opts, func(c *Comm) error {
		for i := 0; i < 4; i++ {
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first := FirstError(errs); first != nil {
		t.Fatalf("retry with spent injector failed: %v", first)
	}
}

// TestRecvTimeoutAborts: a rank that never sends must trip the receive
// deadline on its peer, and the abort must release both ranks.
func TestRecvTimeoutAborts(t *testing.T) {
	opts := Options{RecvTimeout: 50 * time.Millisecond}
	done := make(chan struct{})
	var errs []error
	go func() {
		defer close(done)
		_, errs, _ = TryRun(2, opts, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Recv(1) // rank 1 never sends
			} else {
				c.Recv(0) // symmetric: both starve
			}
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("recv timeout did not release the ranks")
	}
	first := FirstError(errs)
	if first == nil {
		t.Fatal("expected a timeout error")
	}
	if !errors.Is(first, ErrRecvTimeout) {
		t.Errorf("error %v does not wrap ErrRecvTimeout", first)
	}
	if !errors.Is(first, ErrRankFailed) {
		t.Errorf("error %v does not wrap ErrRankFailed", first)
	}
}

// TestDropRetrySucceeds: a bounded drop clause (max < retries) must be
// absorbed by the retry loop — the run completes, and the retry counter
// advances.
func TestDropRetrySucceeds(t *testing.T) {
	const p = 4
	inj := faults.New(mustParse(t, "drop:p=1,max=2"), 3, p)
	opts := Options{Faults: inj, SendRetries: 4, RetryBackoff: 10 * time.Microsecond}
	before := metrics.CommRetriesTotal.Value()
	_, errs, err := TryRun(p, opts, func(c *Comm) error {
		got := c.Allreduce([]float64{1})
		if got[0] != float64(p) {
			t.Errorf("rank %d: allreduce = %v, want %v", c.Rank(), got[0], float64(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first := FirstError(errs); first != nil {
		t.Fatalf("bounded drops should be retried through: %v", first)
	}
	if d := metrics.CommRetriesTotal.Value() - before; d <= 0 {
		t.Errorf("retry counter did not advance (delta %d)", d)
	}
}

// TestDropExhaustionFails: with retries below the drop budget the send must
// give up and abort the world rather than spin forever.
func TestDropExhaustionFails(t *testing.T) {
	const p = 2
	inj := faults.New(mustParse(t, "drop:p=1,max=100"), 5, p)
	opts := Options{Faults: inj, SendRetries: 2, RetryBackoff: time.Microsecond}
	done := make(chan struct{})
	var errs []error
	go func() {
		defer close(done)
		_, errs, _ = TryRun(p, opts, func(c *Comm) error {
			c.Allreduce([]float64{1})
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("exhausted sender never aborted")
	}
	first := FirstError(errs)
	if first == nil || !errors.Is(first, ErrRankFailed) {
		t.Fatalf("want ErrRankFailed after retry exhaustion, got %v", first)
	}
}

// TestDelayPreservesResults: pure-latency faults must not change any
// collective's value — only its timing.
func TestDelayPreservesResults(t *testing.T) {
	const p = 4
	inj := faults.New(mustParse(t, "delay:p=0.5,ms=0.2"), 11, p)
	opts := Options{Faults: inj}
	_, errs, err := TryRun(p, opts, func(c *Comm) error {
		sum := c.Allreduce([]float64{float64(c.Rank() + 1)})
		want := float64(p*(p+1)) / 2
		if sum[0] != want {
			t.Errorf("rank %d: delayed allreduce = %v, want %v", c.Rank(), sum[0], want)
		}
		all := c.Allgather([]float64{float64(c.Rank())})
		for r := 0; r < p; r++ {
			if all[r] != float64(r) {
				t.Errorf("rank %d: delayed allgather word %d = %v", c.Rank(), r, all[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first := FirstError(errs); first != nil {
		t.Fatal(first)
	}
}

// TestTryRunSetupError: invalid world sizes surface as a setup error, not a
// panic, with no per-rank results.
func TestTryRunSetupError(t *testing.T) {
	cs, errs, err := TryRun(0, Options{}, func(c *Comm) error { return nil })
	if err == nil {
		t.Fatal("expected setup error for p=0")
	}
	if cs != nil || errs != nil {
		t.Fatalf("expected nil results on setup error, got %v %v", cs, errs)
	}
}

// TestTryRunUserError: a plain application error from one rank is reported
// on that rank only, without aborting the others.
func TestTryRunUserError(t *testing.T) {
	const p = 3
	sentinel := errors.New("application failure")
	_, errs, err := TryRun(p, Options{}, func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if r == 1 && !errors.Is(e, sentinel) {
			t.Errorf("rank 1: %v, want sentinel", e)
		}
		if r != 1 && e != nil {
			t.Errorf("rank %d: unexpected error %v", r, e)
		}
	}
}

// TestFailedWorldRejectsNewTraffic: after an abort the world stays poisoned —
// later sends/receives on any surviving Comm abort immediately instead of
// touching mailboxes.
func TestFailedWorldRejectsNewTraffic(t *testing.T) {
	const p = 2
	inj := faults.New(faults.Spec{Clauses: []faults.Clause{{
		Kind: faults.Crash, Rank: 0, Round: 1,
	}}}, 19, p)
	opts := Options{Faults: inj, RecvTimeout: time.Second}
	_, errs, err := TryRun(p, opts, func(c *Comm) error {
		c.Barrier()
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if errs[r] == nil || !errors.Is(errs[r], ErrRankFailed) {
			t.Errorf("rank %d: %v, want ErrRankFailed", r, errs[r])
		}
	}
}
