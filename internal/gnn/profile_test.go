package gnn

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"agnn/internal/obs"
	"agnn/internal/tensor"
)

func TestInstrumentPreservesSemantics(t *testing.T) {
	a := testGraph(15, 400)
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 3, HiddenDim: 4, OutDim: 2,
		Activation: Tanh(), Seed: 401}, a)
	if err != nil {
		t.Fatal(err)
	}
	h := tensor.RandN(15, 3, 1, rand.New(rand.NewSource(402)))
	if calls := m.Profile().TotalCalls(); calls != 0 {
		t.Fatalf("a model that has not run reports %d calls", calls)
	}
	want := m.Forward(h, false).Clone() // the output buffer is the last layer's
	obs.StartRecording()
	got := m.Forward(h, false)
	obs.StopRecording()
	if !got.ApproxEqual(want, 0) {
		t.Fatal("recording changed outputs")
	}
	prof := m.Profile()
	if len(prof.Stats) != 2 || prof.Stats[0].Calls != 2 {
		t.Fatalf("profile stats wrong: %+v", prof.Stats)
	}
	if prof.TotalForward() <= 0 {
		t.Fatal("no forward time recorded")
	}
	if prof.TotalBackward() != 0 {
		t.Fatal("backward time recorded without Backward call")
	}
}

func TestInstrumentRecordsBackwardAndShares(t *testing.T) {
	a := testGraph(12, 403)
	m, err := New(Config{Model: VA, Layers: 2, InDim: 3, HiddenDim: 3, OutDim: 2,
		Activation: Tanh(), Seed: 404}, a)
	if err != nil {
		t.Fatal(err)
	}
	h := tensor.RandN(12, 3, 1, rand.New(rand.NewSource(405)))
	loss := &MSELoss{Target: tensor.RandN(12, 2, 1, rand.New(rand.NewSource(406)))}
	m.TrainStep(h, loss, NewSGD(0.01, 0))
	prof := m.Profile()
	if prof.TotalBackward() <= 0 {
		t.Fatal("no backward time recorded")
	}
	// A model rebound to another adjacency shares its source's layer
	// instruments: the profile covers both.
	rm, err := RebindAdjacency(m, m.Layers[0].(DAGLayer).core().A)
	if err != nil {
		t.Fatal(err)
	}
	rm.Forward(h, false)
	rm.ReleasePlans()
	if got := m.Profile().Stats[0].Calls; got != 2 {
		t.Fatalf("layer 0 calls after a rebound model's step = %d, want 2", got)
	}
	// String table renders all layers and a total row.
	s := prof.String()
	if !strings.Contains(s, "va") || !strings.Contains(s, "total") {
		t.Fatalf("profile table missing content:\n%s", s)
	}
}

func TestProfileTotalRowIncludesCalls(t *testing.T) {
	p := &Profile{Stats: []*LayerStats{
		{Index: 0, Name: "gat", Forward: time.Millisecond, Calls: 3},
		{Index: 1, Name: "gat", Backward: time.Millisecond, Calls: 2},
	}}
	lines := strings.Split(strings.TrimSpace(p.String()), "\n")
	total := lines[len(lines)-1]
	if !strings.HasPrefix(total, "total") {
		t.Fatalf("last row is not the total row: %q", total)
	}
	fields := strings.Fields(total)
	if fields[len(fields)-1] != "5" {
		t.Fatalf("total row must end with the summed calls column, got %q", total)
	}
}

func TestInstrumentEmitsObsSpans(t *testing.T) {
	obs.StartRecording()
	defer obs.StopRecording()

	a := testGraph(12, 407)
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 3, HiddenDim: 4, OutDim: 2,
		Activation: Tanh(), Seed: 408}, a)
	if err != nil {
		t.Fatal(err)
	}
	h := tensor.RandN(12, 3, 1, rand.New(rand.NewSource(409)))
	loss := &MSELoss{Target: tensor.RandN(12, 2, 1, rand.New(rand.NewSource(410)))}
	m.TrainStep(h, loss, NewSGD(0.01, 0))

	counts := map[string]int64{}
	for _, s := range obs.BuildReport().Spans {
		counts[s.Name] = s.Count
	}
	for _, want := range []string{
		"layer0.forward(gat)", "layer1.forward(gat)",
		"layer0.backward(gat)", "layer1.backward(gat)",
	} {
		if counts[want] != 1 {
			t.Fatalf("span %q count = %d, want 1 (have %v)", want, counts[want], counts)
		}
	}
}
