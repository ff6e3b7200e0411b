package fuse

import (
	"math"
	"math/rand"
	"testing"

	"agnn/internal/graph"
	"agnn/internal/tensor"
)

// TestTropicalSemiringIsMathMaxMin holds the tropical ⊕ to math.Max /
// math.Min folded over each row in column order from ∓Inf, every edge adding
// the unit 0, bit for bit — on features that are ±0, ±Inf and NaN a fifth of
// the time, on rows long enough for the four-edge groups and their
// remainders, at both widths (float32: the fold of the rounded features,
// rounded). Column 0 is −0 throughout: every row's fold there is +0, the
// unit's doing.
func TestTropicalSemiringIsMathMaxMin(t *testing.T) {
	const n, k = 120, 7
	a := graph.ErdosRenyi(n, 1400, 9)
	rng := rand.New(rand.NewSource(10))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	h := tensor.NewDense(n, k)
	for i := range h.Data {
		h.Data[i] = rng.NormFloat64()
		if rng.Intn(5) == 0 {
			h.Data[i] = specials[rng.Intn(len(specials))]
		}
		if i%k == 0 {
			h.Data[i] = math.Copysign(0, -1)
		}
	}
	for _, kind := range []string{"max", "min"} {
		pick, identity := math.Max, math.Inf(-1)
		if kind == "min" {
			pick, identity = math.Min, math.Inf(1)
		}
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			round := func(v float64) float64 { return v }
			if dt == tensor.F32 {
				round = func(v float64) float64 { return float64(float32(v)) }
			}
			g := NewGraph("tropical", a)
			g.SetOutput(g.SpMMSemiring("Z", g.Adj(), g.InputDense("H", n, k), kind))
			p := g.MustCompile(Options{DType: dt})
			got := p.Forward(h)
			for i := 0; i < n; i++ {
				for c := 0; c < k; c++ {
					want := identity
					for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
						want = pick(want, 0+round(h.At(int(a.Col[q]), c)))
					}
					want = round(want)
					if math.Float64bits(got.At(i, c)) != math.Float64bits(want) {
						t.Fatalf("%s %s: (%d,%d) = %v (%#x), math.%s fold %v (%#x)", kind, dt, i, c,
							got.At(i, c), math.Float64bits(got.At(i, c)), kind, want, math.Float64bits(want))
					}
				}
			}
			p.Release()
		}
	}
}
