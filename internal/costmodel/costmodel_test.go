package costmodel

import (
	"math"
	"sync"
	"testing"

	"agnn/internal/dist"
	"agnn/internal/distgnn"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs/metrics"
	"agnn/internal/tensor"
)

func TestGlobalVolumeScaling(t *testing.T) {
	// Halving law: 4× more processors → ≈2× less volume (for the nk term).
	v4 := GlobalVolume(100000, 16, 4)
	v16 := GlobalVolume(100000, 16, 16)
	if math.Abs(v4/v16-2) > 0.01 {
		t.Fatalf("global volume ratio %v, want 2", v4/v16)
	}
	// k² term independent of p.
	if GlobalVolume(0, 64, 4) != 64*64 {
		t.Fatal("k² term wrong")
	}
	if GlobalVolume(100, 16, 1) != 0 {
		t.Fatal("single processor sends nothing")
	}
}

func TestLocalVolumeScalingAndCap(t *testing.T) {
	// Linear in d before the dedup cap.
	v1 := LocalVolume(100000, 16, 8, 64)
	v2 := LocalVolume(100000, 16, 16, 64)
	if math.Abs(v2/v1-2) > 0.05 {
		t.Fatalf("local volume should be linear in d: %v", v2/v1)
	}
	// Cap: d ≥ p means every remote feature row is needed once.
	capped := LocalVolume(1000, 16, 10000, 4)
	wantCap := float64(1000-250)*16 + 16*16
	if math.Abs(capped-wantCap) > 1e-9 {
		t.Fatalf("dedup cap = %v, want %v", capped, wantCap)
	}
}

func TestGlobalWinsRegime(t *testing.T) {
	// d ∈ ω(√p): with d far above √p the global formulation must win, far
	// below it must lose. n large enough that the k² term is negligible.
	n, k, p := 1<<20, 16, 64
	if !GlobalWins(n, k, 1024, p) {
		t.Fatal("global should win for d = 1024 ≫ √p = 8")
	}
	if GlobalWins(n, k, 2, p) {
		t.Fatal("local should win for d = 2 ≪ √p = 8")
	}
}

func TestERCrossover(t *testing.T) {
	n, p := 1<<20, 64
	qc := ERCrossoverQ(n, p)
	// Above the crossover density the global side should be cheaper (using
	// the ER volume with d ≈ nq).
	dAbove := int(3 * qc * float64(n))
	dBelow := int(qc * float64(n) / 3)
	if !GlobalWins(n, 16, dAbove, p) {
		t.Fatal("global should win above the ER crossover")
	}
	if GlobalWins(n, 16, dBelow, p) {
		t.Fatal("local should win below the ER crossover")
	}
}

func TestERExpectedHalo(t *testing.T) {
	// q = 1: everything is a neighbor → halo = n − n/p.
	if got := ERExpectedHalo(1000, 1, 4); math.Abs(got-750) > 1e-9 {
		t.Fatalf("full-density halo = %v", got)
	}
	// q = 0: nothing.
	if ERExpectedHalo(1000, 0, 4) != 0 {
		t.Fatal("zero-density halo must be 0")
	}
	// Monotone in q.
	if ERExpectedHalo(1000, 0.01, 4) >= ERExpectedHalo(1000, 0.05, 4) {
		t.Fatal("halo must grow with density")
	}
}

func TestWithinFactor(t *testing.T) {
	if !WithinFactor(10, 20, 3) || !WithinFactor(20, 10, 3) {
		t.Fatal("factor-3 band rejected valid ratios")
	}
	if WithinFactor(100, 10, 3) {
		t.Fatal("10× off accepted")
	}
	if !WithinFactor(0, 0, 2) || WithinFactor(1, 0, 2) {
		t.Fatal("zero-prediction handling wrong")
	}
}

// TestMeasuredGlobalVolumeTracksModel: validation strategy #5 — the
// simulated engine's measured per-rank volume must track GlobalVolume
// within a constant factor across a p-sweep.
func TestMeasuredGlobalVolumeTracksModel(t *testing.T) {
	n, k, layers := 128, 8, 2
	a := graph.ErdosRenyi(n, 8*n, 21)
	h := tensor.NewDense(n, k)
	for i := range h.Data {
		h.Data[i] = math.Cos(float64(i) * 0.13)
	}
	cfg := gnn.Config{Model: gnn.GCN, Layers: layers, InDim: k, HiddenDim: k,
		OutDim: k, Activation: gnn.Tanh(), Seed: 5}
	for _, p := range []int{4, 16, 64} {
		cs := dist.Run(p, func(c *dist.Comm) {
			e, err := distgnn.NewGlobalEngine(c, a, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			e.Forward(e.SliceOwnedBlock(h), false)
		})
		measured := float64(dist.MaxCounters(cs).BytesSent) / 8
		predicted := float64(layers) * GlobalVolume(n, k, p)
		if !WithinFactor(measured, predicted, 4) {
			t.Fatalf("p=%d: measured %v words vs predicted %v (off by >4×)",
				p, measured, predicted)
		}
	}
}

// TestMeasuredLocalHaloTracksER: the LocalEngine's halo size must match the
// ER expectation within a small factor.
func TestMeasuredLocalHaloTracksER(t *testing.T) {
	n := 256
	for _, q := range []float64{0.01, 0.05} {
		m := int(q * float64(n) * float64(n-1) / 2)
		a := graph.ErdosRenyi(n, m, 23)
		cfg := gnn.Config{Model: gnn.GCN, Layers: 1, InDim: 4, HiddenDim: 4,
			OutDim: 4, Seed: 5}
		var halo int
		var mu sync.Mutex
		dist.Run(4, func(c *dist.Comm) {
			e, err := distgnn.NewLocalEngine(c, a, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if c.Rank() == 0 {
				mu.Lock()
				halo = e.HaloSize()
				mu.Unlock()
			}
		})
		want := ERExpectedHalo(n, q, 4)
		if !WithinFactor(float64(halo), want, 1.6) {
			t.Fatalf("q=%v: halo %d vs expected %v", q, halo, want)
		}
	}
}

func TestERLocalVolumeAndHelpers(t *testing.T) {
	// Scales linearly with q and inversely with p.
	v1 := ERLocalVolume(10000, 16, 0.01, 16)
	v2 := ERLocalVolume(10000, 16, 0.02, 16)
	if v2 <= v1 {
		t.Fatal("ER volume must grow with q")
	}
	v3 := ERLocalVolume(10000, 16, 0.01, 64)
	if v3 >= v1 {
		t.Fatal("ER volume must shrink with p")
	}
	if ERLocalVolume(100, 16, 0.5, 1) != 0 {
		t.Fatal("p=1 must be free")
	}
	if WordsToBytes(10) != 80 {
		t.Fatal("WordsToBytes wrong")
	}
	pr := Predict(1000, 16, 32, 16, 3)
	if pr.GlobalWords != 3*GlobalVolume(1000, 16, 16) ||
		pr.LocalWords != 3*LocalVolume(1000, 16, 32, 16) {
		t.Fatalf("Predict inconsistent: %+v", pr)
	}
	if pr.Layers != 3 || pr.N != 1000 {
		t.Fatal("Predict metadata wrong")
	}
}

// TestRegistryMeasuredCommTracksModelKronecker is the live-registry
// counterpart of TestMeasuredGlobalVolumeTracksModel: on a Graph500-style
// Kronecker graph at p=16, the per-rank word counts accumulated in the
// metrics registry (agnn_comm_bytes_total{rank}) must agree with the
// Section 7.1 prediction within 2×, and ValidateComm must publish both
// sides to the registry gauges.
func TestRegistryMeasuredCommTracksModelKronecker(t *testing.T) {
	const (
		scale  = 7 // n = 128 vertices
		k      = 8
		layers = 2
		p      = 16
	)
	a := graph.Kronecker(scale, 8, 42)
	n := a.Rows
	h := tensor.NewDense(n, k)
	for i := range h.Data {
		h.Data[i] = math.Sin(float64(i) * 0.37)
	}
	cfg := gnn.Config{Model: gnn.GCN, Layers: layers, InDim: k, HiddenDim: k,
		OutDim: k, Activation: gnn.Tanh(), Seed: 7}

	// The Default registry is cumulative across the test binary, so measure
	// this run as a delta between snapshots.
	before := metrics.Default.Snapshot().CounterFamily("agnn_comm_bytes_total")
	dist.Run(p, func(c *dist.Comm) {
		e, err := distgnn.NewGlobalEngine(c, a, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		e.Forward(e.SliceOwnedBlock(h), false)
	})
	after := metrics.Default.Snapshot().CounterFamily("agnn_comm_bytes_total")

	var maxWords float64
	ranks := 0
	for rank, bytes := range after {
		if d := bytes - before[rank]; d > 0 {
			ranks++
			if w := float64(d) / 8; w > maxWords {
				maxWords = w
			}
		}
	}
	if ranks != p {
		t.Fatalf("registry saw traffic from %d ranks, want %d", ranks, p)
	}

	predicted := float64(layers) * GlobalVolume(n, k, p)
	v := ValidateComm(predicted, maxWords)
	t.Logf("kronecker n=%d k=%d p=%d: predicted %.0f words, measured %.0f (ratio %.2f)",
		n, k, p, predicted, maxWords, v.Ratio)
	if !v.Within(2) {
		t.Fatalf("measured %v words vs predicted %v: ratio %.2f exceeds 2×",
			maxWords, predicted, v.Ratio)
	}
	if got := metrics.CommPredictedWords.Value(); got != predicted {
		t.Fatalf("predicted gauge = %v, want %v", got, predicted)
	}
	if got := metrics.CommMeasuredWords.Value(); got != maxWords {
		t.Fatalf("measured gauge = %v, want %v", got, maxWords)
	}
}

func TestValidateTimePublishesGauges(t *testing.T) {
	v := ValidateTime(0.02, 0.03)
	if v.Ratio != 1.5 {
		t.Errorf("ratio %v, want 1.5", v.Ratio)
	}
	if !v.Within(2) || v.Within(1.2) {
		t.Errorf("Within misbehaves: %+v", v)
	}
	if got := metrics.LayerPredictedSeconds.Value(); got != 0.02 {
		t.Errorf("predicted gauge %v, want 0.02", got)
	}
	if got := metrics.LayerMeasuredSeconds.Value(); got != 0.03 {
		t.Errorf("measured gauge %v, want 0.03", got)
	}
	if v0 := ValidateTime(0, 0.01); v0.Ratio != 0 {
		t.Errorf("zero prediction must give ratio 0, got %v", v0.Ratio)
	}
}
