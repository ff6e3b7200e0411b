package distgnn

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"agnn/internal/dist"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs"
)

// TestGridTrainingTrace is the acceptance scenario of the obs subsystem: a
// 2-layer GAT trained on the simulated 2×2 grid must produce a Chrome
// trace with one track per rank, layer and train-phase spans on every
// rank's timeline, and collective spans carrying byte counts, so BSP
// supersteps line up across ranks in Perfetto.
func TestGridTrainingTrace(t *testing.T) {
	const p = 4
	a := graph.ErdosRenyi(48, 300, 5)
	cfg := testCfg(gnn.GAT, 2, 5, 6, 3)
	h := testFeatures(48, 5)
	labels := make([]int, 48)
	for i := range labels {
		labels[i] = i % 3
	}

	// Record the run, exactly as the CLI wiring does: the engines, models
	// and plans a rank goroutine wires bind to the rank's log, so layer and
	// plan-op records land on the rank's track.
	obs.StartRecording()
	defer obs.StopRecording()
	dist.Run(p, func(c *dist.Comm) {
		e, err := NewGlobalEngine(c, a, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		xd := e.SliceOwnedBlock(h)
		e.TrainStep(xd, labels, nil, gnn.NewSGD(1e-3, 0))
	})

	// One track per rank (plus the main track).
	rep := obs.BuildReport()
	if got := len(rep.Tracks); got != p+1 {
		t.Fatalf("got %d tracks, want %d", got, p+1)
	}

	byTrack := map[string]obs.TrackStat{}
	for _, ts := range rep.Tracks {
		byTrack[ts.Track] = ts
	}
	for _, rank := range []string{"rank 0", "rank 1", "rank 2", "rank 3"} {
		ts, ok := byTrack[rank]
		if !ok || ts.Spans == 0 {
			t.Fatalf("track %q missing or empty: %+v", rank, rep.Tracks)
		}
		if ts.Attrs["bytes"] == 0 {
			t.Fatalf("track %q carries no byte attributes", rank)
		}
	}
	counts := map[string]int64{}
	for _, s := range rep.Spans {
		counts[s.Name] = s.Count
	}
	for _, want := range []string{"train_step", "forward", "backward",
		"layer0.forward(gat)", "layer1.backward(gat)", "allreduce_grads"} {
		if counts[want] != p {
			t.Fatalf("span %q count = %d, want %d (have %v)", want, counts[want], p, counts)
		}
	}
	// Plan ops compiled inside rank goroutines must be attributed to rank
	// tracks (the binding at compile time), and the collective spans must
	// carry bytes.
	if counts["gat.Psi"] == 0 || counts["bcast"] == 0 {
		t.Fatalf("kernel or collective spans missing: %v", counts)
	}

	// The Chrome export of this trace must be loadable JSON with collective
	// spans carrying byte args.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Tid  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	bcastWithBytes := 0
	for _, e := range parsed.TraceEvents {
		if e.Ph != "X" || !strings.HasPrefix(e.Name, "bcast") {
			continue
		}
		var args map[string]int64
		if err := json.Unmarshal(e.Args, &args); err != nil {
			t.Fatalf("span args malformed: %s", e.Args)
		}
		if args["bytes"] > 0 {
			bcastWithBytes++
		}
	}
	if bcastWithBytes == 0 {
		t.Fatal("no bcast span in the Chrome trace carries a byte count")
	}
}
