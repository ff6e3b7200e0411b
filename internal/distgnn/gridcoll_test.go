package distgnn

import (
	gonet "net"
	"runtime"
	"sync"
	"testing"
	"time"

	"agnn/internal/dist"
	distnet "agnn/internal/dist/net"
	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs/metrics"
	"agnn/internal/sparse"
)

// The dist-grid-tcp workload's block shape: B vertices per block, k
// features.
const gridB, gridK = 16384, 32

// gridWorld is a 2×2 world whose ranks each run one step of their own on
// every step of the world.
type gridWorld struct {
	start []chan struct{} // start[r]: one token per step; closed to stop
	done  chan error      // one per rank per step, or the rank's failure
	wg    sync.WaitGroup
	stop  func()
}

// newGridWorld starts the ranks the way the workload runs them — one
// NewNetWorld per endpoint — over the channel world or over loopback TCP
// endpoints with the default configuration. Each rank calls rank once, on
// its own goroutine, for its step function. Tests leave opts.RecvTimeout
// unset: under -race sync.Pool drops the pooled receive timers at random.
func newGridWorld(tb testing.TB, tcp bool, opts dist.Options, rank func(c *dist.Comm) (func(), error)) *gridWorld {
	const p = 4
	w := &gridWorld{start: make([]chan struct{}, p), done: make(chan error, p)}
	eps, closeEps := gridEndpoints(tb, p, tcp)
	w.stop = closeEps
	w.wg.Add(p)
	for r := range eps {
		w.start[r] = make(chan struct{})
		go func(r int) {
			defer w.wg.Done()
			nw, err := dist.NewNetWorld(eps[r], opts)
			if err == nil {
				_, err = nw.TryRunLocal(func(c *dist.Comm) error {
					step, err := rank(c)
					if err != nil {
						return err
					}
					for range w.start[r] {
						step()
						w.done <- nil
					}
					return nil
				})
			}
			if err != nil {
				w.done <- err // in place of the rank's next step
			}
		}(r)
	}
	return w
}

// layerCollectives is a rank of one GAT layer's collective sequence —
// bcast-col of the features, the softmax's two row allreduces,
// reduce-row-to-diag of the SpMM partials — in its own buffers, once per
// step.
func layerCollectives(c *dist.Comm) (func(), error) {
	g := &blockGrid{gridPosition(c, 2, 2)}
	feat := make([]float64, gridB*gridK)
	part := make([]float64, gridB*gridK)
	stat := make([]float64, gridB)
	return func() {
		g.Bcast(fuse.AlongCol, feat)
		g.AllreduceRow(stat, true)
		g.AllreduceRow(stat, false)
		g.ReduceToDiag(fuse.AlongRow, part)
	}, nil
}

// gridEndpoints returns p endpoints of one world and the function closing
// them.
func gridEndpoints(tb testing.TB, p int, tcp bool) ([]distnet.Endpoint, func()) {
	eps := make([]distnet.Endpoint, p)
	if !tcp {
		cw, err := distnet.NewChanWorld(p)
		if err != nil {
			tb.Fatal(err)
		}
		for r := range eps {
			eps[r] = cw.Endpoint(r)
		}
		return eps, func() {}
	}
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	rdv := ln.Addr().String()
	ln.Close()
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := distnet.DialTCP(distnet.TCPConfig{Rank: r, Size: p, Rendezvous: rdv})
			if err == nil {
				eps[r] = ep
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	closeAll := func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}
	for r, err := range errs {
		if err != nil {
			closeAll()
			tb.Fatalf("rank %d: %v", r, err)
		}
	}
	return eps, closeAll
}

// step runs the sequence once on every rank.
func (w *gridWorld) step(tb testing.TB) {
	for _, s := range w.start {
		s <- struct{}{}
	}
	for range w.start {
		if err := <-w.done; err != nil {
			tb.Fatal(err)
		}
	}
}

// close stops the ranks and releases the transport.
func (w *gridWorld) close() {
	for _, s := range w.start {
		close(s)
	}
	w.wg.Wait()
	w.stop()
}

// warm runs steps until the recycled buffers cover a step's working set —
// for TCP, the frames still waiting for their ACK: up to a megabyte of each
// stream before the receiver's prompt ACK, and what is left below that
// until its next beacon. So it warms until a window of steps spanning a few
// heartbeat periods allocates nothing, for at most twenty seconds.
func (w *gridWorld) warm(tb testing.TB) {
	const window = 250 * time.Millisecond // 2.5 default heartbeat periods
	var ms runtime.MemStats
	for t0 := time.Now(); time.Since(t0) < 20*time.Second; {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for t1 := time.Now(); time.Since(t1) < window; {
			w.step(tb)
		}
		if runtime.ReadMemStats(&ms); ms.Mallocs == before {
			return
		}
	}
}

// TestGridCollectivesZeroAllocs: once warm, a grid layer's collectives move
// their words from one plan buffer to the peer's without allocating, over
// channels and over TCP — no payload copy, no frame, no replay entry, no
// received buffer is fresh memory.
func TestGridCollectivesZeroAllocs(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(transportName(tcp), func(t *testing.T) {
			w := newGridWorld(t, tcp, dist.Options{}, layerCollectives)
			defer w.close()
			w.warm(t)
			if n := testing.AllocsPerRun(30, func() { w.step(t) }); n != 0 {
				t.Fatalf("%v allocations per grid layer's collectives, want 0", n)
			}
		})
	}
}

// TestGridTCPWirePoolSteady: a warm 4-rank loopback TCP grid draws its
// frames and received payloads from buffers the process's wire pool already
// holds, so the pool's bytes, as its gauge reads them, do not move over eight
// steps, and stay within the peak the other gauge keeps. The gauge moves
// only on a pool miss, and a late ACK leaves one more frame waiting than
// ever before: the replay window still growing to its peak. So the warm-up
// ends once the gauge has held over a whole warm round (warm: steps until a
// window of them allocates nothing), and warms again at most three times,
// the bound TestGridTrainStepZeroAllocs states; a pool that keeps growing
// fails.
func TestGridTCPWirePoolSteady(t *testing.T) {
	w := newGridWorld(t, true, dist.Options{}, layerCollectives)
	defer w.close()
	w.warm(t)
	for rewarm := 1; ; rewarm++ {
		before := metrics.NetPoolBytes.Value()
		w.warm(t)
		if metrics.NetPoolBytes.Value() == before {
			break
		}
		if rewarm == 3 {
			t.Fatalf("the wire pool still grows after three re-warms: %.0f B, %.0f B before the last", metrics.NetPoolBytes.Value(), before)
		}
	}
	held := metrics.NetPoolBytes.Value()
	if held == 0 {
		t.Fatal("the wire pool's gauge reads 0 B on a TCP grid")
	}
	for step := 1; step <= 8; step++ {
		w.step(t)
	}
	if got := metrics.NetPoolBytes.Value(); got != held {
		t.Fatalf("the wire pool holds %.0f B after eight warm steps, %.0f B before them", got, held)
	}
	if peak := metrics.NetPoolPeakBytes.Value(); peak < held {
		t.Fatalf("the wire pool's peak gauge reads %.0f B below its %.0f B", peak, held)
	}
}

// BenchmarkGridCollectives is one GAT layer's grid collectives at the
// workload's block shape; allocs/op must read 0 on both transports.
func BenchmarkGridCollectives(b *testing.B) {
	for _, tcp := range []bool{false, true} {
		b.Run(transportName(tcp), func(b *testing.B) {
			w := newGridWorld(b, tcp, dist.Options{RecvTimeout: 60 * time.Second}, layerCollectives)
			defer w.close()
			w.warm(b)
			b.SetBytes(8 * (2*gridB*gridK + 2*gridB))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.step(b)
			}
		})
	}
}

// TestGridTrainStepZeroAllocs: once warm, a whole GlobalEngine.TrainStep —
// the lowered forward and backward with their collectives, the loss over
// the diagonal block, the gradient allreduce and an Adam step — allocates
// nothing on any rank, over channels and over TCP. The 2×2 GAT's blocks
// hold 512 vertices, so the loss's sweep fans out to the worker pool. A TCP
// run allocates when a late ACK leaves more frames waiting for it than ever
// before: the replay window still growing to its peak, not per-step
// garbage, so it warms again, at most three times; garbage would show in
// every run. The p×1 grid's step, its gathers and reduce-scatters included,
// is held to the same over channels.
func TestGridTrainStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	const n = 1024
	a := graph.ErdosRenyi(n, 8*n, 840)
	h := testFeatures(n, 8)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 4
	}
	cfg := testCfg(gnn.GAT, 2, 8, 8, 4)
	for _, run := range []struct {
		name      string
		tcp       bool
		newEngine func(*dist.Comm, *sparse.CSR, gnn.Config) (*GlobalEngine, error)
	}{{"chan", false, NewGlobalEngine}, {"tcp", true, NewGlobalEngine}, {"chan-p×1", false, NewRowGrid}} {
		tcp := run.tcp
		t.Run(run.name, func(t *testing.T) {
			w := newGridWorld(t, tcp, dist.Options{}, func(c *dist.Comm) (func(), error) {
				e, err := run.newEngine(c, a, cfg)
				if err != nil {
					return nil, err
				}
				xd, opt := e.SliceOwnedBlock(h), gnn.NewAdam(0.01)
				return func() { e.TrainStep(xd, labels, nil, opt) }, nil
			})
			defer w.close()
			for warm := 1; ; warm++ {
				w.warm(t)
				n := testing.AllocsPerRun(10, func() { w.step(t) })
				if n == 0 {
					break
				}
				if !tcp || warm == 3 {
					t.Fatalf("%v allocations per grid training step, want 0", n)
				}
			}
		})
	}
}

func transportName(tcp bool) string {
	return map[bool]string{false: "chan", true: "tcp"}[tcp]
}
