// Command agnn-serve is the online-inference server: it rebuilds a model
// from the same dataset/config flags as agnn-train, restores trained
// weights from a checkpoint directory (internal/ckpt) or a weights file,
// and answers per-vertex classification queries over HTTP with
// micro-batched compiled-plan executions (internal/serving). Each runner
// compiles one plan per layer and binds it to every query's blocks, so no
// query compiles.
//
// Endpoints:
//
//	POST /v1/predict  {"vertices":[0,5,9]}    → batched per-vertex answers
//	POST /v1/ego      {"vertex":3,"hops":2}   → one vertex, explicit radius
//	GET  /metrics /healthz /report /debug/pprof/*  (diagnostics)
//
// Example (pairs with agnn-train's checkpointing):
//
//	agnn-train -m GAT -v 256 -classes 4 -epochs 5 -checkpoint-dir ckpt
//	agnn-serve -m GAT -v 256 -classes 4 -checkpoint-dir ckpt -addr :8080
//
// The dataset flags must match the training run so the synthetic dataset
// (or -data bundle) regenerates the identical graph and features the
// checkpointed weights were trained on.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"agnn/internal/ckpt"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs"
	"agnn/internal/obs/serve"
	"agnn/internal/serving"
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
	seed := flag.Int64("s", 0, "random seed")
	trainFrac := flag.Float64("train", 0.7, "training-mask fraction (synthetic dataset)")
	heads := flag.Int("heads", 1, "GAT attention heads")
	dtype := flag.String("dtype", "f64", "element width of the compiled plans: f64 (default) or f32 (mixed precision; checkpoint dtype must match)")

	ckptDir := flag.String("checkpoint-dir", "", "restore the latest full checkpoint from this directory")
	weights := flag.String("weights", "", "restore a weights-only checkpoint (agnn-train -save)")
	addr := flag.String("addr", ":8080", "listen address")
	hops := flag.Int("hops", 0, "prediction neighborhood radius (0 = the hops the model's aggregations reach)")
	maxBatch := flag.Int("max-batch", 64, "max seed vertices per compiled execution")
	queueDepth := flag.Int("queue-depth", 0, "admission queue depth (0 = 4×max-batch)")
	runners := flag.Int("runners", 1, "batch-execution goroutines")
	flightDir := flag.String("flight-dir", "", "write flight-recorder dumps (SIGQUIT, shutdown) to this directory (default $AGNN_FLIGHT_DIR)")
	flag.Parse()

	if *flightDir != "" {
		obs.SetDumpDir(*flightDir)
	}
	// SIGQUIT dumps the flight recorder's recent-event ring — the
	// postmortem for a hung server.
	obs.NotifySignal(syscall.SIGQUIT)

	kind, err := gnn.ParseKind(*model)
	fatal(err)
	dt, err := tensor.ParseDType(*dtype)
	fatal(err)

	var ds *graph.Dataset
	if *dataFile != "" {
		ds, err = graph.LoadDataset(*dataFile)
		fatal(err)
	} else {
		ds = graph.SyntheticCitation(*vertices, *classes, *features, *trainFrac, *seed)
	}

	cfg := gnn.Config{Model: kind, Layers: *layers, InDim: ds.Features.Cols,
		HiddenDim: *hidden, OutDim: ds.Classes, Activation: gnn.ReLU(),
		SelfLoops: true, Heads: *heads, Seed: *seed, DType: dt}
	m, err := gnn.New(cfg, ds.Adj)
	fatal(err)

	switch {
	case *ckptDir != "":
		path, epoch, ok, err := ckpt.Latest(*ckptDir)
		fatal(err)
		if !ok {
			fatal(fmt.Errorf("no checkpoint found in %s", *ckptDir))
		}
		_, err = ckpt.Load(path, m.Params())
		fatal(err)
		fmt.Printf("restored checkpoint %s (epoch %d)\n", path, epoch)
	case *weights != "":
		fatal(gnn.LoadWeightsFile(*weights, m))
		fmt.Printf("restored weights from %s\n", *weights)
	default:
		fmt.Println("warning: serving untrained weights (no -checkpoint-dir or -weights)")
	}

	adj, err := m.Adjacency()
	fatal(err)
	eng, err := serving.NewEngine(serving.Config{
		Model: m, Adj: adj, Features: ds.Features,
		Hops: *hops, MaxBatch: *maxBatch,
		QueueDepth: *queueDepth, Runners: *runners,
	})
	fatal(err)

	// The serving mux embeds the diagnostics mux (metrics, healthz, pprof)
	// as its fallback route.
	ln, err := net.Listen("tcp", *addr)
	fatal(err)
	httpSrv := &http.Server{
		Handler:           serving.Handler(eng, serve.Options{}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go httpSrv.Serve(ln) //nolint:errcheck // Serve always returns on Shutdown
	fmt.Printf("serving %s: n=%d classes=%d hops=%d on %s\n",
		kind, ds.Adj.Rows, ds.Classes, eng.Hops(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(sctx)
	eng.Stop()
	// Clean shutdown leaves the same agnn-flight/v1 artifact the crash path
	// writes, so request history is inspectable either way.
	if path := obs.OnShutdown(); path != "" {
		fmt.Printf("flight dump: %s\n", path)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "agnn-serve:", err)
		os.Exit(1)
	}
}
