package distgnn

import (
	"testing"

	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs"
	"agnn/internal/tensor"
)

// withCausalTracing records one closure's run.
func withCausalTracing(t *testing.T, fn func()) {
	t.Helper()
	obs.StartRecording()
	defer obs.StopRecording()
	fn()
}

// withoutCausalTracing runs fn with recording off, regardless of ambient
// state.
func withoutCausalTracing(t *testing.T, fn func()) {
	t.Helper()
	obs.StopRecording()
	fn()
}

// TestCausalTracingTrainingBitwiseIdentical is the differential acceptance
// test for the causal layer: full distributed training at p ∈ {4, 16} must
// produce bit-for-bit the same losses and final weights — and send the same
// bytes — whether the run is recorded or not. The stamps ride beside the
// payload and must never perturb arithmetic or message order.
func TestCausalTracingTrainingBitwiseIdentical(t *testing.T) {
	const epochs = 4
	for _, p := range []int{4, 16} {
		var want, got *TrainResult
		withoutCausalTracing(t, func() {
			var err error
			want, err = TrainResilient(resilientSpec(t, p, epochs))
			if err != nil {
				t.Fatalf("p=%d untraced: %v", p, err)
			}
		})
		withCausalTracing(t, func() {
			var err error
			got, err = TrainResilient(resilientSpec(t, p, epochs))
			if err != nil {
				t.Fatalf("p=%d traced: %v", p, err)
			}
		})
		if len(got.Losses) != len(want.Losses) {
			t.Fatalf("p=%d: %d losses vs %d", p, len(got.Losses), len(want.Losses))
		}
		for e := range want.Losses {
			if got.Losses[e] != want.Losses[e] {
				t.Fatalf("p=%d epoch %d: traced loss %v != untraced %v",
					p, e, got.Losses[e], want.Losses[e])
			}
		}
		assertBitwiseEqual(t, "causal-tracing", finalWeights(t, got), finalWeights(t, want))
		for r := range want.Counters {
			if got.Counters[r] != want.Counters[r] {
				t.Fatalf("p=%d rank %d: traced counters %+v != untraced %+v", p, r, got.Counters[r], want.Counters[r])
			}
		}

		// The traced run must actually have recorded something — a silently
		// dead log would make this test vacuous — and the recording reads
		// back as a critical path with one window per epoch.
		for r := 0; r < p; r++ {
			if len(obs.Rank(r).Events()) == 0 {
				t.Fatalf("p=%d: traced training recorded nothing on rank %d", p, r)
			}
		}
		if sum := obs.CriticalPath(); sum == nil || len(sum.Epochs) != epochs || sum.Hops == 0 {
			t.Fatalf("p=%d: critical path of the traced run: %+v", p, sum)
		}
	}
}

// TestCausalTracingRowForwardBitwiseIdentical extends the differential
// guarantee to the p×1 grid: its ring allgathers with per-message causal
// stamps must gather bit-identical outputs with tracing on and off, at
// p ∈ {4, 16}.
func TestCausalTracingRowForwardBitwiseIdentical(t *testing.T) {
	a := graph.Kronecker(6, 8, 91) // 64 vertices
	h := testFeatures(64, 5)
	cfg := testCfg(gnn.GAT, 2, 5, 6, 3)
	for _, p := range []int{4, 16} {
		var want, got *tensor.Dense
		withoutCausalTracing(t, func() { want = runRowGrid(t, p, a, cfg, h) })
		withCausalTracing(t, func() { got = runRowGrid(t, p, a, cfg, h) })
		if want == nil || got == nil {
			t.Fatalf("p=%d: missing gathered output", p)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("p=%d: traced forward differs at word %d: %v vs %v", p, i, got.Data[i], want.Data[i])
			}
		}
	}
}
