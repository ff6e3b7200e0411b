package fuse

import (
	"math"
	"testing"
)

// expOne is the float32 softmax exponential as a plan evaluates it — expSum
// over a row, sparse.ExpRow underneath — on a row of one.
func expOne(x float32) float32 {
	row := []float32{x}
	return expSum(row, row, 0)
}

// TestExp32Accuracy sweeps the argument range the f32 softmax kernels
// actually use — max-subtracted scores, so (-inf, 0] — as one long row, and
// checks the minimax polynomial against the correctly-rounded float32
// exponential. The Cephes scheme is good to ~2 ulp; 1e-6 relative is ~8 ulp
// of slack.
func TestExp32Accuracy(t *testing.T) {
	var args []float32
	for x := -87.3; x <= 0; x += 0.0037 {
		args = append(args, float32(x))
	}
	row := make([]float32, len(args))
	expSum(row, args, 0)
	maxRel := 0.0
	for q, x := range args {
		got := float64(row[q])
		want := math.Exp(float64(x))
		rel := math.Abs(got-want) / want
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 1e-6 {
		t.Fatalf("exp32 max relative error %.3g on [-87.3, 0], want <= 1e-6", maxRel)
	}
	// A few positive arguments too: the attention kernels never pass them,
	// but the function must stay correct for any composed score.
	for _, x := range []float32{0.5, 1, 3.25, 10, 42, 80} {
		got := float64(expOne(x))
		want := math.Exp(float64(x))
		if rel := math.Abs(got-want) / want; rel > 1e-6 {
			t.Errorf("expOne(%v) = %g, want %g (rel %.3g)", x, got, want, rel)
		}
	}
}

func TestExp32Boundaries(t *testing.T) {
	if got := expOne(0); got != 1 {
		t.Errorf("expOne(0) = %v, want 1", got)
	}
	// Below float32's denormal floor the result flushes to zero instead of
	// producing garbage from the exponent bit arithmetic.
	if got := expOne(-88); got != 0 {
		t.Errorf("expOne(-88) = %v, want 0", got)
	}
	if got := expOne(-200); got != 0 {
		t.Errorf("expOne(-200) = %v, want 0", got)
	}
	// Above float32's max exponent it saturates to +Inf like expf.
	if got := expOne(89); !math.IsInf(float64(got), 1) {
		t.Errorf("expOne(89) = %v, want +Inf", got)
	}
}
