package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// runTraced is the per-layer run. It first runs the selected workload
// untraced, exactly as runUntraced does, then repeats it with a third of
// the steps, every call into a layer in a span; the other three workloads
// get a few traced steps each on their full-size inputs, so that every
// traced run reports every layer. The layer probes and the host probe
// follow. Exact counts of the two passes of the selected workload must
// agree, and so must the losses of a training workload, bit for bit.
func runTraced(cfg config, selected string) (*report, error) {
	r := &report{workload: selected, traced: true}
	host, err := probeHost(cfg.sz.smoke)
	if err != nil {
		return nil, err
	}
	host.report(r)
	runtime.GC() // the triad arrays are gigabytes of garbage now

	un := &report{workload: selected}
	t := newTracer()
	steps := func(name string, full int) int {
		if name == selected {
			return atLeast(2, float64(full)/float64(cfg.sz.traceDiv))
		}
		return cfg.sz.mini
	}
	var gcBefore debug.GCStats
	debug.ReadGCStats(&gcBefore)

	hubW := genHub(cfg)
	if selected == "infer-hub" {
		if err := hubW.run(cfg, un); err != nil {
			return nil, err
		}
	}
	if err := hubW.trace(t, steps("infer-hub", cfg.sz.inferSteps), r); err != nil {
		return nil, err
	}

	flatW := genFlat(cfg)
	if selected == "train-flat" {
		if err := flatW.run(cfg, un); err != nil {
			return nil, err
		}
	}
	trainLosses, err := flatW.trace(t, steps("train-flat", cfg.sz.trainSteps), r)
	if err != nil {
		return nil, err
	}

	gridW := genGrid(cfg)
	if selected == "dist-grid-tcp" {
		if err := gridW.run(cfg, un); err != nil {
			return nil, err
		}
	}
	distLosses, err := gridW.trace(cfg, t, steps("dist-grid-tcp", cfg.sz.distEpochs), r)
	if err != nil {
		return nil, err
	}

	egoW := genEgo(cfg)
	rungS := cfg.sz.rungSeconds / float64(cfg.sz.traceDiv)
	if selected == "serve-ego" {
		if err := egoW.run(cfg, un); err != nil {
			return nil, err
		}
		rungS = cfg.sz.rungSeconds
	}
	if err := egoW.trace(cfg, t, rungS, r); err != nil {
		return nil, err
	}

	// run.*: the selected workload's own two passes.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var gcAfter debug.GCStats
	debug.ReadGCStats(&gcAfter)
	root := map[string]string{"infer-hub": "infer.step", "train-flat": "train.step",
		"dist-grid-tcp": "dist.step", "serve-ego": "serve.request"}[selected]
	tracedSteps := t.seconds(root, 0)
	r.put("run.step_s_p90", quantile(tracedSteps, 0.9), "s")
	r.put("run.step_s_min", quantile(tracedSteps, 0), "s")
	r.put("run.steps", float64(len(tracedSteps)), "count")
	r.put("run.gc_pause_s", (gcAfter.PauseTotal - gcBefore.PauseTotal).Seconds(), "s")
	r.put("run.heap_peak_mb", float64(ms.HeapSys-ms.HeapReleased)/(1<<20), "MB")
	r.put("run.trace_overhead_frac", median(tracedSteps)/un.get("step_s_p50")-1, "ratio")

	// Probes need each workload's objects in their warmed-up state.
	p := &probes{cfg: cfg, r: r, host: host, reps: 5}
	if cfg.sz.smoke {
		p.reps = 2
	}
	if _, err := egoW.setup(); err != nil {
		return nil, err
	}
	err = p.ego(egoW)
	stopEngine(egoW.eng)
	if err != nil {
		return nil, err
	}
	if err := p.hub(hubW); err != nil {
		return nil, err
	}
	if err := p.flat(flatW); err != nil {
		return nil, err
	}
	p.parDispatch()
	if err := p.collectives(false, "dist", gridW.edges.n); err != nil {
		return nil, err
	}
	if err := p.collectives(true, "net", gridW.edges.n); err != nil {
		return nil, err
	}

	// The selected workload's checks, then the traced run's own.
	r.checks = append(r.checks, un.checks...)
	r.attempted, r.failed = un.attempted, un.failed
	for _, name := range []string{"gnn.closure_frac.hub", "gnn.closure_frac.flat", "distgnn.closure_frac", "serving.closure_frac"} {
		c := r.get(name)
		r.check(name, c >= 0.95 && c <= 1.05, "children cover %.4f of their parents (band 0.95-1.05)", c)
	}
	selfCheck(selected, un, r, trainLosses, distLosses)
	out, err := benchOutDir()
	if err != nil {
		return nil, err
	}
	return r, t.write(filepath.Join(out, "trace-"+selected+".json"))
}

// selfCheck holds the traced pass of the selected workload to its untraced
// pass: the loss of every step both training passes took must agree bit for
// bit (which fixes epochs_to_target), and so must the bytes sent per epoch.
func selfCheck(selected string, un, r *report, trainLosses, distLosses []float64) {
	traced := map[string][]float64{"train-flat": trainLosses, "dist-grid-tcp": distLosses}[selected]
	if traced != nil {
		same := len(traced) <= len(un.losses)
		for i := 0; same && i < len(traced); i++ {
			same = math.Float64bits(traced[i]) == math.Float64bits(un.losses[i])
		}
		r.check("exact-losses", same, "losses of the %d traced steps equal the untraced run's, bit for bit: %t", len(traced), same)
	}
	if selected == "dist-grid-tcp" {
		r.check("exact-comm-bytes", un.get("comm_bytes_per_step") == r.get("dist.comm_bytes_per_step"),
			"comm_bytes_per_step untraced %v, traced %v", un.get("comm_bytes_per_step"), r.get("dist.comm_bytes_per_step"))
	}
}

// benchOutDir makes and returns the directory a run leaves files in:
// bench/out under the repository.
func benchOutDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}
