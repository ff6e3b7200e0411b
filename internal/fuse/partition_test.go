package fuse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// ringArrival emulates the simulated ring allgather's arrival order for a
// rank owning chunk me of g equal chunks over n rows: own chunk at step 0,
// then me-1, me-2, … (mod g) — the order dist.AllgatherChunks delivers.
func ringArrival(n, g, me int) []fuse.RowRange {
	bounds := make([]int, g+1)
	for i := 0; i <= g; i++ {
		bounds[i] = i * n / g
	}
	avail := make([]fuse.RowRange, g)
	for t := 0; t < g; t++ {
		c := ((me-t)%g + g) % g
		avail[t] = fuse.RowRange{Lo: bounds[c], Hi: bounds[c+1]}
	}
	return avail
}

// buildRankGAT builds the per-rank row-offset GAT plan shape (global-domain
// mm/matvec feeding pattern-domain mask/softmax/spmm/sigma) — the RowEngine
// execution shape the partitioner must reproduce bitwise.
func buildRankGAT(full *sparse.CSR, lo, hi, k int, w, a1, a2 fuse.ParamRef) *fuse.Graph {
	rows := sliceRows(full, lo, hi)
	g := fuse.NewGraph("gat-rank", rows)
	g.SetRowOffset(lo)
	hn := g.InputDense("H", full.Rows, k)
	wn := g.ParamNode("W", w)
	a1n := g.ParamNode("a1", a1)
	a2n := g.ParamNode("a2", a2)
	hp := g.MM("Hp", hn, wn)
	u := g.MatVecNode("u", hp, a1n)
	v := g.MatVecNode("v", hp, a2n)
	c := g.AddScores("C", g.RepRow("u1T", u), g.RepCol("1vT", v))
	e := g.Mask("E", g.LReLUScores("lreluC", c, 0.2), false)
	psi := g.Softmax("Psi", e)
	z := g.SpMM("Z", psi, hp)
	g.SetOutput(g.Sigma("Hout", z, tanhAct))
	return g
}

// assertSteppedBitwise runs plan once sequentially and once partitioned by
// avail, revealing the input range by range right before each RunStep, and
// fails on any differing bit.
func assertSteppedBitwise(t *testing.T, what string, plan *fuse.Plan, avail []fuse.RowRange, h *tensor.Dense) {
	t.Helper()
	want := plan.Forward(h).Clone()
	pp, err := plan.Partition(avail)
	if err != nil {
		t.Fatalf("%s: Partition: %v", what, err)
	}
	if lf := pp.LocalFraction(); lf < 0 || lf > 1 {
		t.Fatalf("%s: LocalFraction %v out of [0,1]", what, lf)
	}
	k := h.Cols
	staged := tensor.NewDense(h.Rows, k)
	pp.Bind(staged)
	for st := 0; st < pp.Steps(); st++ {
		r := avail[st]
		copy(staged.Data[r.Lo*k:r.Hi*k], h.Data[r.Lo*k:r.Hi*k])
		pp.RunStep(st)
	}
	got := pp.Output()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: partitioned output differs at %d: %v vs %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestPartitionBitwiseIdentical checks that stepped execution with
// incrementally revealed input rows produces a bitwise-identical output to
// the sequential Forward, across rank positions and chunk counts. The input
// buffer is only filled range-by-range right before each RunStep, so any
// fragment reading a row before its arrival step shows up as a corrupted
// (zero-fed) output, not a silent pass.
func TestPartitionBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	full := weightedGraph(64, 300, 23)
	const k = 5
	w := randParam(rng, "W", k, k)
	a1 := randParam(rng, "a1", k, 1)
	a2 := randParam(rng, "a2", k, 1)
	h := randDense(rng, full.Rows, k)

	for _, g := range []int{4, 8} {
		for me := 0; me < g; me++ {
			lo, hi := me*full.Rows/g, (me+1)*full.Rows/g
			graph := buildRankGAT(full, lo, hi, k, w, a1, a2)
			plan := graph.MustCompile(fuse.Options{NoAttnFuse: true})
			assertSteppedBitwise(t, fmt.Sprintf("g=%d me=%d", g, me), plan, ringArrival(full.Rows, g, me), h)
		}
	}
}

// TestPartitionAGNNBitwiseIdentical covers the AGNN shape: a global-domain
// rownorm feeding composed virtual scores through softmax.
func TestPartitionAGNNBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	full := weightedGraph(60, 280, 29)
	const k = 4
	w := randParam(rng, "W", k, k)
	beta := randParam(rng, "beta", 1, 1)
	h := randDense(rng, full.Rows, k)

	const g, me = 4, 2
	lo, hi := me*full.Rows/g, (me+1)*full.Rows/g
	rows := sliceRows(full, lo, hi)
	gr := fuse.NewGraph("agnn-rank", rows)
	gr.SetRowOffset(lo)
	hn := gr.InputDense("H", full.Rows, k)
	wn := gr.ParamNode("W", w)
	bn := gr.ParamNode("beta", beta)
	norms := gr.RowNormsNode("n", hn)
	cos := gr.DivScores("C", gr.DotScores("HHt", hn, hn), gr.OuterScores("nnT", norms, norms))
	s := gr.Mask("S", gr.ScaleScores("betaC", cos, bn), true)
	psi := gr.Softmax("Psi", s)
	z := gr.SpMM("Z", psi, gr.MM("HW", hn, wn))
	gr.SetOutput(gr.Sigma("Hout", z, tanhAct))
	plan := gr.MustCompile(fuse.Options{NoAttnFuse: true})
	assertSteppedBitwise(t, "agnn", plan, ringArrival(full.Rows, g, me), h)
}

// TestPartitionSemiringBitwiseIdentical: a semiring ⊕ is a row op like the
// sum — softmax attention aggregated by max, min and mean on a rank's row
// block, under its row offset, partitions bit for bit.
func TestPartitionSemiringBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	full := weightedGraph(60, 280, 31)
	const k, g, me = 4, 4, 1
	w := randParam(rng, "W", k, k)
	h := randDense(rng, full.Rows, k)
	lo, hi := me*full.Rows/g, (me+1)*full.Rows/g
	for _, kind := range []string{"max", "min", "mean"} {
		gr := fuse.NewGraph("sr-rank", sliceRows(full, lo, hi))
		gr.SetRowOffset(lo)
		hn := gr.InputDense("H", full.Rows, k)
		psi := gr.Softmax("Psi", gr.Mask("S", gr.DotScores("HHt", hn, hn), true))
		z := gr.SpMMSemiring("Z", psi, gr.MM("HW", hn, gr.ParamNode("W", w)), kind)
		gr.SetOutput(gr.Sigma("Hout", z, tanhAct))
		assertSteppedBitwise(t, kind, gr.MustCompile(fuse.Options{NoAttnFuse: true}), ringArrival(full.Rows, g, me), h)
	}
}

// TestPartitionErrors pins the rejection paths: row-indivisible ops and
// malformed arrival coverage.
func TestPartitionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := weightedGraph(32, 120, 43)
	const k = 3
	w := randParam(rng, "W", k, k)

	t.Run("fused attention is row-indivisible", func(t *testing.T) {
		p := buildVA(a, w, k).MustCompile(fuse.Options{})
		if _, err := p.Partition([]fuse.RowRange{{Lo: 0, Hi: a.Rows}}); err == nil {
			t.Fatal("expected row-indivisible error for a plan compiled without NoAttnFuse")
		}
	})

	t.Run("coverage gaps and overlaps", func(t *testing.T) {
		p := buildVA(a, w, k).MustCompile(fuse.Options{NoAttnFuse: true})
		if _, err := p.Partition([]fuse.RowRange{{Lo: 0, Hi: a.Rows - 1}}); err == nil {
			t.Fatal("expected error for uncovered row")
		}
		if _, err := p.Partition([]fuse.RowRange{{Lo: 0, Hi: 20}, {Lo: 16, Hi: a.Rows}}); err == nil {
			t.Fatal("expected error for overlapping ranges")
		}
		if _, err := p.Partition(nil); err == nil {
			t.Fatal("expected error for empty arrival list")
		}
	})
}
