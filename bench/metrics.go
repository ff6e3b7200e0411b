package main

import (
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The metric registry: the names, units and bounds this benchmark defines.
// BENCHMARK.json lists endToEnd and perLayer; bench_test.go keeps the two
// in step. README.md says what each metric means on each workload.

type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // allowed worsening as a share of the baseline; end-to-end and extras only
	exact      bool    // a count that repeats bit for bit
}

// endToEnd is measured with tracing off, on every workload. The step time
// that is gated is the 10th percentile of a run's steps, not their median:
// the reference box's other tenants slow stretches of 1-10 s by 1.6x, a
// median lands in or out of such a stretch from run to run (spread 18-45 %
// over ten runs on a busy hour), and the lower decile is what a step costs
// between them (2-16 %; see README.md, "Measured noise"). The bounds are the
// contract's widest all the same.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "step_s_p10", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "ok_share", unit: "ratio", better: "higher", bound: 0},
}

// extras are end-to-end metrics that are too unsteady on the reference box
// to gate (the median, the tail and the mean rate all take in the slow
// stretches) or exist on one workload only. The driver's contract wants
// every end-to-end metric on every workload and steady, so these are
// printed and recorded by the command and judged by -compare, but are not
// in BENCHMARK.json.
var extras = map[string][]metricDef{
	"infer-hub": stepExtras(),
	"train-flat": stepExtras(
		metricDef{name: "time_to_target_s", unit: "s", better: "lower", bound: 0.25},
		metricDef{name: "epochs_to_target", unit: "count", better: "lower", exact: true}),
	"dist-grid-tcp": stepExtras(metricDef{name: "comm_bytes_per_step", unit: "B", better: "lower", exact: true}),
	"serve-ego":     stepExtras(metricDef{name: "max_rate_in_limit_rps", unit: "1/s", better: "higher", bound: 0.34}),
}

// stepExtras are the extras every workload has, followed by its own.
func stepExtras(own ...metricDef) []metricDef {
	return append([]metricDef{
		{name: "step_s_p50", unit: "s", better: "lower", bound: 0.25},
		{name: "step_s_tail", unit: "s", better: "lower", bound: 0.25},
		{name: "edges_per_s", unit: "1/s", better: "higher", bound: 0.25},
	}, own...)
}

// perLayer is measured by the traced run. Every traced run measures every
// layer: the layers belong to the program, not to a workload.
var perLayer = []metricDef{
	// host: the ceilings every *_roof_frac divides by
	{name: "host.stream_gbs", unit: "GB/s", better: "higher"},
	{name: "host.fma_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "host.loopback_rtt_us", unit: "us", better: "lower"},
	{name: "host.loopback_gbs", unit: "GB/s", better: "higher"},
	// tensor
	{name: "tensor.mm_s", unit: "s", better: "lower"},
	{name: "tensor.mm_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.mm_roof_frac", unit: "ratio", better: "higher"},
	{name: "tensor.tmm_s", unit: "s", better: "lower"},
	// sparse
	{name: "sparse.spmm_s.flat", unit: "s", better: "lower"},
	{name: "sparse.spmm_gbs.flat", unit: "GB/s", better: "higher"},
	{name: "sparse.spmm_roof_frac.flat", unit: "ratio", better: "higher"},
	{name: "sparse.sddmm_s.flat", unit: "s", better: "lower"},
	{name: "sparse.softmax_s.flat", unit: "s", better: "lower"},
	{name: "sparse.spmm_s.hub", unit: "s", better: "lower"},
	{name: "sparse.spmm_gbs.hub", unit: "GB/s", better: "higher"},
	{name: "sparse.spmm_roof_frac.hub", unit: "ratio", better: "higher"},
	{name: "sparse.sddmm_s.hub", unit: "s", better: "lower"},
	{name: "sparse.softmax_s.hub", unit: "s", better: "lower"},
	{name: "sparse.transpose_s", unit: "s", better: "lower"},
	{name: "sparse.from_coo_s", unit: "s", better: "lower"},
	{name: "sparse.fingerprint_s", unit: "s", better: "lower"},
	// kernels
	{name: "kernels.fused_attn_s.hub", unit: "s", better: "lower"},
	{name: "kernels.fused_attn_edges_per_s.hub", unit: "1/s", better: "higher"},
	{name: "kernels.fused_attn_roof_frac.hub", unit: "ratio", better: "higher"},
	{name: "kernels.fused_attn_s.flat", unit: "s", better: "lower"},
	{name: "kernels.fused_attn_edges_per_s.flat", unit: "1/s", better: "higher"},
	{name: "kernels.fused_attn_roof_frac.flat", unit: "ratio", better: "higher"},
	// par
	{name: "par.efficiency.hub", unit: "ratio", better: "higher"},
	{name: "par.efficiency.flat", unit: "ratio", better: "higher"},
	{name: "par.dispatch_us", unit: "us", better: "lower"},
	// fuse
	{name: "fuse.compile_s.hub", unit: "s", better: "lower"},
	{name: "fuse.compile_s.ego", unit: "s", better: "lower"},
	{name: "fuse.plan_fwd_s", unit: "s", better: "lower"},
	{name: "fuse.plan_fwd_s.f64", unit: "s", better: "lower"},
	{name: "fuse.plan_bwd_s", unit: "s", better: "lower"},
	{name: "fuse.plan_ops", unit: "count", better: "lower", exact: true},
	{name: "fuse.attn_fused", unit: "count", better: "higher", exact: true},
	{name: "fuse.plan_workspace_bytes", unit: "B", better: "lower", exact: true},
	{name: "fuse.cache_hit_share", unit: "ratio", better: "higher"},
	{name: "fuse.cache_get_hit_us", unit: "us", better: "lower"},
	{name: "fuse.cache_bytes", unit: "B", better: "lower"},
	{name: "fuse.cache_len", unit: "count", better: "lower"},
	// gnn
	{name: "gnn.new_s", unit: "s", better: "lower"},
	{name: "gnn.fwd_s.l0", unit: "s", better: "lower"},
	{name: "gnn.fwd_s.l1", unit: "s", better: "lower"},
	{name: "gnn.fwd_s.l2", unit: "s", better: "lower"},
	{name: "gnn.train_fwd_s.l0", unit: "s", better: "lower"},
	{name: "gnn.train_fwd_s.l1", unit: "s", better: "lower"},
	{name: "gnn.bwd_s.l0", unit: "s", better: "lower"},
	{name: "gnn.bwd_s.l1", unit: "s", better: "lower"},
	{name: "gnn.loss_s", unit: "s", better: "lower"},
	{name: "gnn.opt_s", unit: "s", better: "lower"},
	{name: "gnn.closure_frac.hub", unit: "ratio", better: "higher"},
	{name: "gnn.closure_frac.flat", unit: "ratio", better: "higher"},
	{name: "gnn.allocs_per_step", unit: "count", better: "lower"},
	{name: "gnn.rebind_s", unit: "s", better: "lower"},
	// dist: collectives over the in-process channel world
	{name: "dist.allreduce_s", unit: "s", better: "lower"},
	{name: "dist.bcast_s", unit: "s", better: "lower"},
	{name: "dist.allgather_s", unit: "s", better: "lower"},
	{name: "dist.comm_bytes_per_step", unit: "B", better: "lower", exact: true},
	{name: "dist.msgs_per_step", unit: "count", better: "lower", exact: true},
	{name: "dist.rounds_per_step", unit: "count", better: "lower", exact: true},
	// net: the same over loopback TCP
	{name: "net.allreduce_s", unit: "s", better: "lower"},
	{name: "net.bcast_s", unit: "s", better: "lower"},
	{name: "net.allgather_s", unit: "s", better: "lower"},
	{name: "net.alpha_us", unit: "us", better: "lower"},
	{name: "net.beta_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "net.wire_bytes_per_step", unit: "B", better: "lower"},
	{name: "net.frames_per_step", unit: "count", better: "lower"},
	{name: "net.write_share", unit: "ratio", better: "lower"},
	{name: "net.reconnects", unit: "count", better: "lower"},
	{name: "net.dial_retries", unit: "count", better: "lower"},
	{name: "net.bootstrap_s", unit: "s", better: "lower"},
	{name: "net.overhead_frac", unit: "ratio", better: "lower"},
	// distgnn: the channel-world twin, phases timed per rank
	{name: "distgnn.fwd_s", unit: "s", better: "lower"},
	{name: "distgnn.loss_s", unit: "s", better: "lower"},
	{name: "distgnn.bwd_s", unit: "s", better: "lower"},
	{name: "distgnn.allreduce_grads_s", unit: "s", better: "lower"},
	{name: "distgnn.opt_s", unit: "s", better: "lower"},
	{name: "distgnn.rank_imbalance", unit: "ratio", better: "lower"},
	{name: "distgnn.chan_step_s", unit: "s", better: "lower"},
	{name: "distgnn.engine_new_s", unit: "s", better: "lower"},
	{name: "distgnn.closure_frac", unit: "ratio", better: "higher"},
	// serving: the engine's own stage times at the 80 rps rung
	{name: "serving.queue_s_p50", unit: "s", better: "lower"},
	{name: "serving.queue_s_p95", unit: "s", better: "lower"},
	{name: "serving.batch_s_p50", unit: "s", better: "lower"},
	{name: "serving.expand_s_p50", unit: "s", better: "lower"},
	{name: "serving.expand_s_p95", unit: "s", better: "lower"},
	{name: "serving.plan_s_p50", unit: "s", better: "lower"},
	{name: "serving.plan_s_p95", unit: "s", better: "lower"},
	{name: "serving.batch_seeds_mean", unit: "count", better: "higher"},
	{name: "serving.closure_frac", unit: "ratio", better: "higher"},
	{name: "serving.expand_call_s", unit: "s", better: "lower"},
	{name: "serving.http_overhead_us", unit: "us", better: "lower"},
	{name: "serving.shed_share_top", unit: "ratio", better: "lower"},
	{name: "serving.gen_lag_s_p99", unit: "s", better: "lower"},
	// graph / ckpt
	{name: "graph.induced_subgraph_s", unit: "s", better: "lower"},
	{name: "graph.add_self_loops_s", unit: "s", better: "lower"},
	{name: "ckpt.save_s", unit: "s", better: "lower"},
	{name: "ckpt.load_s", unit: "s", better: "lower"},
	{name: "ckpt.bytes", unit: "B", better: "lower", exact: true},
	// run: diagnostics of the selected workload's own passes, never gated
	{name: "run.step_s_p90", unit: "s", better: "lower"},
	{name: "run.step_s_min", unit: "s", better: "lower"},
	{name: "run.steps", unit: "count", better: "higher"},
	{name: "run.gc_pause_s", unit: "s", better: "lower"},
	{name: "run.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "run.trace_overhead_frac", unit: "ratio", better: "lower"},
}

// defaultSeconds is BENCHMARK.json's run_seconds: the timed part of a full
// run on the reference box (2 cores). Step counts, not durations, are what
// the benchmark fixes, so two commits of a comparison do identical work;
// -seconds only scales the counts.
const defaultSeconds = 16

// sizes fixes the inputs and the step counts of every workload.
type sizes struct {
	k, classes int // feature width and label classes everywhere

	hubScale   int // infer-hub: R-MAT scale, edge factor 16
	inferSteps int

	flatN      int // train-flat and serve-ego: planted-partition vertices
	trainSteps int
	target     float64 // train-flat: training loss the timed steps must reach

	distScale  int // dist-grid-tcp: R-MAT scale, edge factor 16
	distEpochs int // timed epochs, after one discarded
	twinEpochs int // epochs the channel twin repeats for the bitwise check

	pool        int       // serve-ego: distinct vertices queried
	rates       []float64 // requests per second, ascending
	limitRates  int       // the first limitRates rates count towards ok_share; the rest are stretch
	rungSeconds float64   // length of a rate's rung; the reference rate (refRate) gets twice that
	warmSeconds float64   // untimed, at rates[0]
	coldQueries int       // sequential queries that end set-up

	setups   int // set-ups per run; setup_s is their median
	traceDiv int // the traced pass runs steps/traceDiv
	mini     int // steps of a traced pass of a workload that is not the selected one
	smoke    bool
}

// fullSizes scales the step counts so the timed part of each workload takes
// about `seconds` on the reference box on a quiet day (on a busy one, half
// as long again): 0.40 s a forward, 0.25 s a training step, 0.35 s an
// epoch, and a serve schedule of a warm-up and four rungs, the reference
// rate's twice as long as the others. train-flat never takes fewer than 60
// steps: on fifty seeds the loss first fell to the target at step 39-49,
// and the check that it does must hold on any seed with room to spare.
func fullSizes(seconds int) sizes {
	s := float64(seconds)
	return sizes{
		k: 32, classes: 8,
		hubScale: 16, inferSteps: atLeast(4, s/0.40),
		flatN: 32768, trainSteps: atLeast(60, s/0.25), target: 0.50,
		distScale: 15, distEpochs: atLeast(4, s/0.35), twinEpochs: 3,
		pool: 2048, rates: []float64{40, 80, 120, 160}, limitRates: 3,
		rungSeconds: s / 6, warmSeconds: s / 12, coldQueries: 8,
		setups: 3, traceDiv: 3, mini: 3,
	}
}

// smokeSizes is the same code on inputs small enough for a unit test; its
// numbers mean nothing.
func smokeSizes() sizes {
	return sizes{
		k: 16, classes: 4,
		hubScale: 9, inferSteps: 4,
		flatN: 1024, trainSteps: 30, target: 1.0,
		distScale: 9, distEpochs: 4, twinEpochs: 2,
		pool: 64, rates: []float64{40, 80, 120, 160}, limitRates: 3,
		rungSeconds: 0.3, warmSeconds: 0.1, coldQueries: 2,
		setups: 2, traceDiv: 2, mini: 2, smoke: true,
	}
}

func atLeast(min int, x float64) int {
	if n := int(x + 0.5); n > min {
		return n
	}
	return min
}

// startSetup does what every set-up does before the clock starts: copy the
// edge list into the program's coordinate format (FromCOO sorts its argument
// in place, so each set-up needs a fresh copy) and collect what earlier
// set-ups left behind, so that it counts towards neither this one's time nor
// its memory peak.
func startSetup(e *edgeList) (*coo, time.Time) {
	c := newCOO(e)
	runtime.GC()
	return c, time.Now()
}

// repeatSetup sets up n-1 more times after the first and returns all n
// times; setup_s is their median. The repeats come after the timed part, so
// that peak_rss_mb, read before them, is the peak of one set-up and one run,
// not of whatever earlier set-ups left in the allocator.
func repeatSetup(first float64, n int, setup func() (float64, error)) ([]float64, error) {
	times := []float64{first}
	for len(times) < n {
		s, err := setup()
		if err != nil {
			return nil, err
		}
		times = append(times, s)
	}
	return times, nil
}

// putEndToEnd derives the metrics every workload shares from its set-up
// times and its per-step times. edgesPerStep is the adjacency nonzeros one
// step processes.
func putEndToEnd(r *report, setups, steps []float64, edgesPerStep float64) {
	r.put("setup_s", median(setups), "s")
	r.put("step_s_p10", quantile(steps, 0.10), "s")
	r.put("step_s_p50", median(steps), "s")
	q := tailQuantile(len(steps))
	r.put("step_s_tail", quantile(steps, q), "s")
	r.note("step_s_tail.percentile", fmtFloat(q))
	r.note("step_s.samples", fmtFloat(float64(len(steps))))
	noteSteps(r, steps)
	r.put("edges_per_s", edgesPerStep*float64(len(steps))/sum(steps), "1/s")
	r.put("ok_share", 1-float64(r.failed)/float64(r.attempted), "ratio")
}

// noteSteps prints every step time of the run in the order taken, so that
// another statistic than the ones reported can be worked out afterwards.
func noteSteps(r *report, steps []float64) {
	all := make([]string, len(steps))
	for i, s := range steps {
		all[i] = strconv.FormatFloat(s, 'g', 4, 64)
	}
	r.note("step_s.all", strings.Join(all, " "))
}
