// Command agnn-train trains an A-GNN full-batch on a node-classification
// dataset — either a synthetic planted-partition citation graph generated
// on the fly, or a .ds dataset bundle (graph + features + labels + split;
// see agnn-gen -dataset). It prints the loss trajectory and train/test
// accuracy, and can checkpoint weights.
//
// Examples:
//
//	agnn-train -m GAT -v 2048 -classes 4 -epochs 50 -lr 0.01
//	agnn-gen -d dataset -v 4096 -classes 5 -o cora-like.ds
//	agnn-train -m AGNN -data cora-like.ds -epochs 100 -save model.ckpt
//
// Observability (docs/OBSERVABILITY.md): -trace writes a Chrome trace-event
// JSON of every layer and kernel span, -metrics the aggregated run-report,
// -cpuprofile/-memprofile standard pprof profiles, and -profile prints the
// per-layer wall-time table after training.
//
//	agnn-train -m GAT -l 2 -epochs 10 -trace trace.json -metrics run.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"agnn/internal/dist/faults"
	"agnn/internal/distgnn"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs"
	"agnn/internal/obs/metrics"
	"agnn/internal/tensor"
)

func main() {
	model := flag.String("m", "GAT", "model: VA, AGNN, GAT, GCN")
	vertices := flag.Int("v", 1024, "number of vertices (synthetic dataset)")
	classes := flag.Int("classes", 4, "number of label classes (synthetic dataset)")
	dataFile := flag.String("data", "", "dataset bundle produced by agnn-gen -d dataset")
	features := flag.Int("features", 16, "feature dimension (synthetic dataset)")
	layers := flag.Int("l", 2, "number of layers")
	hidden := flag.Int("hidden", 16, "hidden dimension")
	epochs := flag.Int("epochs", 50, "training epochs")
	lr := flag.Float64("lr", 0.01, "Adam learning rate")
	seed := flag.Int64("s", 0, "random seed")
	trainFrac := flag.Float64("train", 0.7, "training-mask fraction (synthetic dataset)")
	heads := flag.Int("heads", 1, "GAT attention heads (>1 enables the multi-head extension)")
	dtype := flag.String("dtype", "f64", "element width of the compiled plans: f64 (default, bitwise-stable) or f32 (mixed precision; single node or any process count)")
	savePath := flag.String("save", "", "write a weight checkpoint here after training")
	loadPath := flag.String("load", "", "initialize weights from this checkpoint")
	profile := flag.Bool("profile", false, "print the per-layer wall-time table after training")
	ranks := flag.Int("p", 1, "simulated process count (>1 trains on the distributed grid engine: √p×√p when p is a perfect square, p×1 otherwise)")
	faultSpec := flag.String("faults", "", "fault-injection spec, e.g. 'crash:rank=3,round=12;delay:p=0.01,ms=5' (docs/ROBUSTNESS.md; distributed mode)")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the fault injector's RNG streams")
	ckptDir := flag.String("checkpoint-dir", "", "directory for full training-state checkpoints (distributed mode)")
	ckptEvery := flag.Int("checkpoint-every", 1, "epochs between checkpoints")
	resume := flag.Bool("resume", false, "resume from the latest checkpoint in -checkpoint-dir")
	maxRestarts := flag.Int("max-restarts", 3, "world rebuilds tolerated before giving up (distributed mode)")
	transport := flag.String("transport", "chan", "distributed transport: chan (simulated in-process world) or tcp (multi-process wire transport; docs/ROBUSTNESS.md)")
	rank := flag.Int("rank", -1, "this process's rank in a tcp world (worker mode; normally set by -launch)")
	world := flag.Int("world", 0, "tcp world size (defaults to -p)")
	rendezvous := flag.String("rendezvous", "", "rank 0's listen address for tcp bootstrap (host:port); workers dial it")
	launch := flag.Bool("launch", false, "spawn -world worker processes of this binary over loopback tcp and supervise them")
	elastic := flag.Bool("elastic", false, "on a rank failure, resume from checkpoint at a smaller world size instead of rebuilding at full size")
	minRanks := flag.Int("min-ranks", 1, "elastic shrink floor (never resume below this many ranks)")
	var o obs.CLI
	o.Register(flag.CommandLine)
	flag.Parse()

	kind, err := gnn.ParseKind(*model)
	fatal(err)
	dt, err := tensor.ParseDType(*dtype)
	fatal(err)
	fatal(o.Start())

	var ds *graph.Dataset
	if *dataFile != "" {
		ds, err = graph.LoadDataset(*dataFile)
		fatal(err)
	} else {
		ds = graph.SyntheticCitation(*vertices, *classes, *features, *trainFrac, *seed)
	}
	n := ds.Adj.Rows

	cfg := gnn.Config{Model: kind, Layers: *layers, InDim: ds.Features.Cols,
		HiddenDim: *hidden, OutDim: ds.Classes, Activation: gnn.ReLU(),
		SelfLoops: true, Heads: *heads, Seed: *seed, DType: dt}
	m, err := gnn.New(cfg, ds.Adj)
	fatal(err)
	if *loadPath != "" {
		fatal(gnn.LoadWeightsFile(*loadPath, m))
		fmt.Printf("loaded weights from %s\n", *loadPath)
	}
	fmt.Printf("training %s: n=%d m=%d k=%d L=%d classes=%d params=%d\n",
		kind, n, ds.Adj.NNZ(), ds.Features.Cols, *layers, ds.Classes, m.NumParams())

	if *transport != "chan" && *transport != "tcp" {
		fatal(fmt.Errorf("unknown -transport %q (want chan or tcp)", *transport))
	}
	if *launch || *transport == "tcp" || *ranks > 1 || *faultSpec != "" || *ckptDir != "" || *resume {
		if *loadPath != "" {
			fatal(fmt.Errorf("-load is single-node only; distributed runs resume with -checkpoint-dir and -resume"))
		}
		spec := distgnn.TrainSpec{
			P:      *ranks,
			A:      ds.Adj,
			X:      ds.Features,
			Labels: ds.Labels,
			Mask:   ds.TrainMask,
			Cfg:    cfg,
			Epochs: *epochs,
			NewOpt: func() gnn.StatefulOptimizer { return gnn.NewAdam(*lr) },

			CheckpointDir:   *ckptDir,
			CheckpointEvery: *ckptEvery,
			Resume:          *resume,
			MaxRestarts:     *maxRestarts,
			Elastic:         *elastic,
			MinRanks:        *minRanks,
			OnEpoch:         printEpoch(*epochs),
		}
		if (*launch || *transport == "tcp") && *world != 0 {
			spec.P = *world
		}
		do := distOpts{rank: *rank, rendezvous: *rendezvous,
			faults: *faultSpec, faultSeed: *faultSeed, savePath: *savePath}
		switch {
		case *launch:
			fatal(launchWorkers(spec, do))
		case *transport == "tcp":
			runWorker(m, ds, spec, do)
		default:
			trainDistributed(m, ds, spec, do)
		}
		fatal(o.Stop())
		return
	}

	loss := &gnn.CrossEntropyLoss{Labels: ds.Labels, Mask: ds.TrainMask}
	testMask := ds.TestMask()
	opt := gnn.NewAdam(*lr)
	edges := float64(ds.Adj.NNZ())
	for e := 1; e <= *epochs; e++ {
		t0 := obs.Now()
		l := m.TrainStep(ds.Features, loss, opt)
		if err := gnn.FiniteLoss(e, l); err != nil {
			// Stop rather than train on NaNs.
			dumpNonFinite(err)
			fatal(errors.Join(err, o.Stop()))
		}
		dt := obs.TrainEpoch(obs.Main(), e, t0)
		metrics.TrainEpoch.Set(float64(e))
		metrics.TrainLoss.Set(l)
		metrics.TrainGradNorm.Set(gnn.GradNorm(m.Params()))
		if dt > 0 {
			metrics.TrainEdgesPerSec.Set(edges / dt)
		}
		if e%10 == 0 || e == 1 || e == *epochs {
			out := m.Forward(ds.Features, false)
			fmt.Printf("epoch %3d  loss %.4f  train-acc %.3f  test-acc %.3f\n",
				e, l, gnn.Accuracy(out, ds.Labels, ds.TrainMask),
				gnn.Accuracy(out, ds.Labels, testMask))
		}
	}
	if *savePath != "" {
		fatal(gnn.SaveWeightsFile(*savePath, m))
		fmt.Printf("saved weights to %s\n", *savePath)
	}
	if *profile {
		fmt.Print(m.Profile().String())
	}
	fatal(o.Stop())
}

// trainDistributed runs the resilient distributed training loop on an
// in-process world (grid engine + checkpoint/resume + optional fault
// injection) and reports it through m.
func trainDistributed(m *gnn.Model, ds *graph.Dataset, spec distgnn.TrainSpec, o distOpts) {
	spec.Faults = o.injector(spec.P, true)
	res, err := distgnn.TrainResilient(spec)
	dumpNonFinite(err)
	fatal(err)
	if res.Restarts > 0 {
		fmt.Printf("recovered from %d rank failure(s) via checkpoint restart\n", res.Restarts)
	}
	if res.FinalWorld != spec.P {
		fmt.Printf("elastic: world shrank from %d to %d rank(s)\n", spec.P, res.FinalWorld)
	}
	finish(m, ds, res, o.savePath)
}

// distOpts are the distributed paths' flags that are not the job's spec.
type distOpts struct {
	rank       int    // this process's rank in a tcp world
	rendezvous string // rank 0's listen address
	faults     string // fault-injection spec
	faultSeed  int64
	savePath   string
}

// injector builds the -faults injector of a p-rank world, announcing it
// when announce is set (once per job), or returns nil without -faults.
func (o distOpts) injector(p int, announce bool) *faults.Injector {
	if o.faults == "" {
		return nil
	}
	fs, err := faults.Parse(o.faults)
	fatal(err)
	if announce {
		fmt.Printf("fault injection: %s (seed %d)\n", fs, o.faultSeed)
	}
	return faults.New(fs, o.faultSeed, p)
}

// printEpoch is rank 0's per-epoch report of a distributed run.
func printEpoch(epochs int) func(epoch int, loss float64) {
	return func(epoch int, loss float64) {
		e := epoch + 1
		metrics.TrainEpoch.Set(float64(e))
		metrics.TrainLoss.Set(loss)
		if e%10 == 0 || e == 1 || e == epochs {
			fmt.Printf("epoch %3d  loss %.4f\n", e, loss)
		}
	}
}

// finish reports a distributed run that rank 0 holds the result of: where
// it resumed, then its final weights copied into the single-node model m —
// the distributed engine draws the same parameter sequence — evaluated and,
// with -save, saved.
func finish(m *gnn.Model, ds *graph.Dataset, res *distgnn.TrainResult, savePath string) {
	if res.StartEpoch > 0 {
		fmt.Printf("resumed from checkpoint at epoch %d\n", res.StartEpoch)
	}
	mp := m.Params()
	if len(mp) != len(res.Params) {
		fatal(fmt.Errorf("parameter inventory mismatch: model %d, engine %d", len(mp), len(res.Params)))
	}
	for i, p := range res.Params {
		if mp[i].Name != p.Name || mp[i].Value.Rows != p.Value.Rows || mp[i].Value.Cols != p.Value.Cols {
			fatal(fmt.Errorf("parameter %d mismatch: model %q %dx%d, engine %q %dx%d",
				i, mp[i].Name, mp[i].Value.Rows, mp[i].Value.Cols, p.Name, p.Value.Rows, p.Value.Cols))
		}
		copy(mp[i].Value.Data, p.Value.Data)
	}
	out := m.Forward(ds.Features, false)
	fmt.Printf("world=%d final  train-acc %.3f  test-acc %.3f\n",
		res.FinalWorld, gnn.Accuracy(out, ds.Labels, ds.TrainMask),
		gnn.Accuracy(out, ds.Labels, ds.TestMask()))
	if savePath != "" {
		fatal(gnn.SaveWeightsFile(savePath, m))
		fmt.Printf("saved weights to %s\n", savePath)
	}
}

// dumpNonFinite leaves, when err is a non-finite loss, the flight dump of the
// steps that led to it, and reports whether it was one.
func dumpNonFinite(err error) bool {
	if !errors.Is(err, gnn.ErrNonFiniteLoss) {
		return false
	}
	if path := obs.OnStop("non-finite-loss", err); path != "" {
		fmt.Fprintf(os.Stderr, "agnn-train: flight dump written to %s\n", path)
	}
	return true
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "agnn-train:", err)
		os.Exit(1)
	}
}
