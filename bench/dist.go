package main

import (
	"fmt"
	"math"
	"time"
)

// dist-grid-tcp: float64 GAT training on a 2×2 A-stationary grid, four
// ranks as goroutines of this process, each with its own TCP endpoint on
// 127.0.0.1. The only workload where dist, dist/net and distgnn do work:
// collectives over real sockets, frame codec, replay buffer, ACKs and
// heartbeats. The R-MAT hubs make rank load uneven, so waiting is visible.

const gridRanks = 4

type grid struct {
	edges  *edgeList
	labels []int
	x      []float64

	a *csr
}

func genGrid(cfg config) *grid {
	w := &grid{edges: genRMAT(cfg.sz.distScale, 16, cfg.seed)}
	w.labels = uniformLabels(w.edges.n, cfg.sz.classes)
	w.x = genFeatures(w.edges.n, cfg.sz.k, w.labels, 0.8, cfg.seed+1)
	return w
}

// distRun is one TrainWorker job as seen from outside.
type distRun struct {
	losses []float64
	world  *rankWorld
	epochS []float64 // wall time of each epoch, from rank 0's OnEpoch
	setupS float64   // FromCOO to the end of the first epoch
}

// train runs epochs+1 epochs; the first is warm-up and ends set-up.
func (w *grid) train(cfg config, epochs int, tcp bool) (*distRun, error) {
	c, t0 := startSetup(w.edges)
	w.a = fromCOO(c)
	job := w.job(cfg)
	job.epochs = epochs + 1
	run := &distRun{}
	last := time.Time{}
	job.onEpoch = func(epoch int, loss float64) {
		now := time.Now()
		if epoch == 0 {
			run.setupS = now.Sub(t0).Seconds()
		} else {
			run.epochS = append(run.epochS, now.Sub(last).Seconds())
		}
		last = now
	}
	var err error
	run.losses, run.world, err = trainWorkers(job, tcp)
	return run, err
}

// job describes the training job over the current adjacency.
func (w *grid) job(cfg config) distJob {
	return distJob{p: gridRanks, a: w.a, x: newDense(w.edges.n, cfg.sz.k, w.x), labels: w.labels,
		model: modelSpec{kind: "GAT", layers: 2, in: cfg.sz.k, hidden: cfg.sz.k,
			out: cfg.sz.classes, selfLoops: true, seed: cfg.seed},
		lr: 0.01}
}

// perEpoch divides the busiest rank's counters by the epochs run.
func perEpoch(w *rankWorld, epochs int) (bytes, msgs, rounds float64) {
	for _, c := range w.counters {
		bytes = math.Max(bytes, float64(c.BytesSent))
		msgs = math.Max(msgs, float64(c.MsgsSent))
		rounds = math.Max(rounds, float64(c.Rounds))
	}
	e := float64(epochs)
	return bytes / e, msgs / e, rounds / e
}

func (w *grid) run(cfg config, r *report) error {
	tcp, err := w.train(cfg, cfg.sz.distEpochs, true)
	if err != nil {
		return err
	}
	r.put("peak_rss_mb", peakRSSMB(), "MB")
	r.note("nnz", fmt.Sprint(nnz(w.a)))
	r.note("max_row_nnz", fmt.Sprint(maxRowNNZ(w.a)))
	for _, l := range tcp.losses {
		r.attempted++
		if math.IsNaN(l) || math.IsInf(l, 0) {
			r.failed++
		}
	}
	bytes, _, _ := perEpoch(tcp.world, len(tcp.losses))
	r.put("comm_bytes_per_step", bytes, "B")
	r.losses = tcp.losses

	// The channel twin: the same job over in-process channels must give
	// the same losses and the same counters, bit for bit.
	twin, err := w.train(cfg, cfg.sz.twinEpochs-1, false)
	if err != nil {
		return err
	}
	same := true
	for i, l := range twin.losses {
		same = same && math.Float64bits(l) == math.Float64bits(tcp.losses[i])
	}
	r.check("tcp-equals-channels", same, "first %d epoch losses over TCP and over channels are bitwise equal: %t", len(twin.losses), same)
	tb, tm, tr := perEpoch(twin.world, len(twin.losses))
	cb, cm, cr := perEpoch(tcp.world, len(tcp.losses))
	r.check("counters-equal", tb == cb && tm == cm && tr == cr,
		"per-epoch bytes/msgs/rounds TCP %v/%v/%v, channels %v/%v/%v", cb, cm, cr, tb, tm, tr)
	reconnects := uint64(0)
	for _, ws := range tcp.world.wire {
		reconnects += ws.Reconnects
	}
	r.check("no-reconnects", reconnects == 0, "%d reconnects", reconnects)

	// Set-up is repeated as jobs of one epoch.
	setups, err := repeatSetup(tcp.setupS, cfg.sz.setups, func() (float64, error) {
		short, err := w.train(cfg, 0, true)
		if err != nil {
			return 0, err
		}
		return short.setupS, nil
	})
	if err != nil {
		return err
	}
	putEndToEnd(r, setups, tcp.epochS, float64(nnz(w.a)))
	return nil
}

// trace runs n epochs on the channel world with the engine phases of every
// rank in spans, and n epochs of TrainWorker on both worlds for the wire
// overhead. It returns the decomposed run's losses.
func (w *grid) trace(cfg config, t *tracer, n int, r *report) ([]float64, error) {
	w.a = fromCOO(newCOO(w.edges))
	job := w.job(cfg)
	losses := make([]float64, n)
	newS := make([]float64, gridRanks) // each rank writes its own element
	_, err := runRanks(gridRanks, false, func(c *comm) error {
		rank := rankOf(c)
		t0 := time.Now()
		e, xd, err := newGridEngine(c, job)
		if err != nil {
			return err
		}
		newS[rank] = time.Since(t0).Seconds()
		opt := newAdam(job.lr)
		for step := 0; step < n; step++ {
			barrier(c) // ranks start an epoch together, so a span is the rank's own time plus its waits inside
			root := t.begin("dist.step", -1, step, rank)
			gridZeroGrad(e)
			var out, g *dense
			var loss float64
			t.in("distgnn.fwd", root, step, rank, func() { out = gridForward(e, xd) })
			t.in("distgnn.loss", root, step, rank, func() { loss, g = gridEvalLoss(e, out, job.labels) })
			t.in("distgnn.bwd", root, step, rank, func() { gridBackward(e, g) })
			t.in("distgnn.allreduce_grads", root, step, rank, func() { gridAllreduceGrads(e) })
			t.in("distgnn.opt", root, step, rank, func() { gridOptStep(e, opt) })
			t.end(root)
			if rank == 0 {
				losses[step] = loss
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The barrier before each epoch is the benchmark's, not the engine's,
	// so the per-epoch counts come from a plain TrainWorker run instead.
	plain, err := w.train(cfg, n-1, false)
	if err != nil {
		return nil, err
	}
	bytes, msgs, rounds := perEpoch(plain.world, n)
	r.put("dist.comm_bytes_per_step", bytes, "B")
	r.put("dist.msgs_per_step", msgs, "count")
	r.put("dist.rounds_per_step", rounds, "count")

	for _, phase := range []string{"fwd", "loss", "bwd", "allreduce_grads", "opt"} {
		slowest := 0.0 // rank's median
		for rank := 0; rank < gridRanks; rank++ {
			slowest = math.Max(slowest, median(t.seconds("distgnn."+phase, rank)))
		}
		r.put("distgnn."+phase+"_s", slowest, "s")
	}
	r.put("distgnn.engine_new_s", maxOf(newS), "s")
	r.put("distgnn.closure_frac", t.closure("dist.step"), "ratio")
	// Rank compute is what a rank spends outside collectives it cannot
	// leave early: approximated by forward + backward, where the work is.
	compute := make([]float64, gridRanks)
	for rank := range compute {
		compute[rank] = median(t.seconds("distgnn.fwd", rank)) + median(t.seconds("distgnn.bwd", rank))
	}
	r.put("distgnn.rank_imbalance", maxOf(compute)/median(compute), "ratio")

	chanStep := median(plain.epochS)
	r.put("distgnn.chan_step_s", chanStep, "s")
	tcp, err := w.train(cfg, n-1, true)
	if err != nil {
		return nil, err
	}
	tcpStep := median(tcp.epochS)
	r.put("net.overhead_frac", (tcpStep-chanStep)/tcpStep, "ratio")
	r.put("net.bootstrap_s", tcp.world.bootstrapS, "s")
	var wire wireStats
	for _, ws := range tcp.world.wire {
		if ws.BytesTx > wire.BytesTx {
			wire.BytesTx, wire.FramesTx, wire.WriteNanos = ws.BytesTx, ws.FramesTx, ws.WriteNanos
		}
		wire.Reconnects += ws.Reconnects
		wire.DialRetries += ws.DialRetries
	}
	r.put("net.wire_bytes_per_step", float64(wire.BytesTx)/float64(n), "B")
	r.put("net.frames_per_step", float64(wire.FramesTx)/float64(n), "count")
	r.put("net.write_share", float64(wire.WriteNanos)/1e9/(tcpStep*float64(n)), "ratio")
	r.put("net.reconnects", float64(wire.Reconnects), "count")
	r.put("net.dial_retries", float64(wire.DialRetries), "count")
	return losses, nil
}
