// Command agnn-bench benchmarks a single A-GNN configuration, mirroring the
// artifact's unified_single_bench.py / unified_distr_bench.py. Instead of
// launching with mpirun, pass -p to run on the simulated distributed
// runtime (goroutine ranks with measured communication volume).
//
// Examples:
//
//	agnn-bench -m VA -v 10000 -e 1000000
//	agnn-bench -m GAT -v 16384 -e 2000000 -p 16 --features 128 --inference
//	agnn-bench -m AGNN -d uniform -v 8192 -e 500000 -p 4 --engine local
//
// Observability (docs/OBSERVABILITY.md): -trace captures a Chrome trace
// with one track per simulated rank — the per-rank BSP superstep timeline —
// and -cpuprofile/-memprofile/-metrics produce pprof profiles and the
// aggregated run-report.
//
//	agnn-bench -m GAT -l 2 -p 4 -repeat 2 -warmup 0 -trace trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"agnn/internal/benchutil"
	"agnn/internal/costmodel"
	"agnn/internal/graph"
	"agnn/internal/obs"
)

func main() {
	var s benchutil.Spec
	var csvPath string
	flag.StringVar(&s.Model, "m", "VA", "model to test: VA, GAT, AGNN, GCN")
	flag.StringVar(&s.Model, "model", "VA", "alias of -m")
	flag.IntVar(&s.Vertices, "v", 4096, "number of vertices in the graph")
	flag.IntVar(&s.Edges, "e", 65536, "number of (directed) edges in the graph")
	flag.StringVar(&s.Dataset, "d", "kronecker", "dataset: kronecker, uniform, makg, file")
	flag.StringVar(&s.File, "f", "", "adjacency matrix file (-d file)")
	flag.IntVar(&s.Features, "features", 16, "number of features k")
	flag.IntVar(&s.Layers, "l", 3, "number of GNN layers")
	flag.IntVar(&s.Ranks, "p", 1, "simulated process count (1 = shared memory; >1 must be a perfect square for the global engine)")
	engine := flag.String("engine", "global", "execution engine: global, rows, local, minibatch")
	flag.BoolVar(&s.Inference, "inference", false, "run inference only (no intermediate matrices stored)")
	flag.IntVar(&s.Repeat, "repeat", 10, "number of timed repetitions")
	flag.IntVar(&s.Warmup, "warmup", 2, "number of warmup runs")
	flag.IntVar(&s.BatchSize, "batch", 16384, "mini-batch seed count (engine=minibatch)")
	flag.Int64Var(&s.Seed, "s", 0, "random number generator seed")
	flag.StringVar(&s.DType, "dtype", "f64", "element width of the compiled plans: f64 (default, bitwise-stable) or f32 (mixed precision)")
	flag.StringVar(&s.Faults, "faults", "", "fault-injection spec for distributed runs, e.g. 'delay:p=0.01,ms=1;drop:p=0.005' (docs/ROBUSTNESS.md)")
	flag.Int64Var(&s.FaultSeed, "fault-seed", 0, "seed for the fault injector's RNG streams")
	flag.StringVar(&csvPath, "csv", "", "append the result row to this CSV file")
	planOnly := flag.Bool("plan", false, "print the cost-model execution plan and exit (no benchmark)")
	var o obs.CLI
	o.Register(flag.CommandLine)
	flag.Parse()

	s.Engine = benchutil.Engine(*engine)
	if s.File != "" {
		s.Dataset = "file"
	}
	if *planOnly {
		a, err := benchutil.BuildGraph(s.Defaults())
		if err != nil {
			fmt.Fprintln(os.Stderr, "agnn-bench:", err)
			os.Exit(1)
		}
		st := graph.Summarize(a)
		plan := costmodel.ChoosePlan(st.N, s.Features, st.MaxDeg, s.Ranks)
		fmt.Printf("graph: n=%d m=%d maxdeg=%d  (k=%d, p=%d)\n", st.N, st.M, st.MaxDeg, s.Features, s.Ranks)
		fmt.Printf("plan:  %s\n", plan)
		for l, v := range plan.Alternatives {
			fmt.Printf("  %-16s %12.0f words/rank/layer\n", l, v)
		}
		return
	}
	if err := o.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "agnn-bench:", err)
		os.Exit(1)
	}
	res, err := benchutil.RunSpec(s)
	if stopErr := o.Stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "agnn-bench:", err)
		os.Exit(1)
	}
	task := "training"
	if res.Inference {
		task = "inference"
	}
	fmt.Printf("model=%s engine=%s task=%s dataset=%s\n", res.Model, res.Engine, task, res.Dataset)
	fmt.Printf("n=%d m=%d maxdeg=%d k=%d L=%d p=%d\n",
		res.N, res.M, res.MaxDegree, res.Features, res.Layers, res.Ranks)
	fmt.Printf("median=%.6fs std=%.6fs\n", res.MedianSec, res.StdSec)
	if res.Ranks > 1 {
		fmt.Printf("comm: max per-rank %d bytes, %d msgs per execution (α-β model: %.6fs)\n",
			res.CommBytesMax, res.CommMsgsMax, res.NetModelSec)
		if res.Inference {
			fmt.Printf("theory: predicted %.0f words per rank per execution (measured/predicted %.2f)\n",
				res.PredictedWords, res.CommRatio)
		} else {
			fmt.Printf("theory: not applicable to training (the per-layer law counts the forward only; measured %.0f words)\n",
				res.MeasuredWords)
		}
		fmt.Printf("layer time: measured %.6fs, model %.6fs (measured/predicted %.2f)\n",
			res.MeanLayerSec, res.PredictedLayerSec, res.LayerTimeRatio)
		if res.CritPathSec > 0 {
			fmt.Printf("critical path: %.6fs per execution, %.6fs of it blocked (measured/predicted %.2f)\n",
				res.CritPathSec, res.CritPathWaitSec, res.CritPathRatio)
		}
	}
	if csvPath != "" {
		if err := appendCSV(csvPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "agnn-bench:", err)
			os.Exit(1)
		}
	}
}

func appendCSV(path string, res benchutil.Result) error {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if os.IsNotExist(statErr) {
		if err := benchutil.WriteCSVHeader(f); err != nil {
			return err
		}
	}
	return res.WriteCSV(f, "manual")
}
