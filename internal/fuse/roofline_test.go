package fuse_test

import (
	"math/rand"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/obs"
	"agnn/internal/obs/evlog"
	"agnn/internal/obs/flight"
	"agnn/internal/obs/metrics"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

func opFamilySum(fam map[string]int64) int64 {
	var s int64
	for _, v := range fam {
		s += v
	}
	return s
}

// TestPlanRooflineAccounting checks that the static traffic model is wired
// end to end: Stats totals, the process byte/flop counters, and the
// per-op-class roofline families all agree after one forward+backward
// step, and the process log's ring holds a span event per executed op.
func TestPlanRooflineAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := weightedGraph(40, 160, 21)
	const k = 4
	w := randParam(rng, "W", k, k)
	beta := randParam(rng, "beta", 1, 1)
	h := randDense(rng, a.Rows, k)
	r := randDense(rng, a.Rows, k)

	p := buildAGNN(a, w, beta, k).MustCompile(fuse.Options{Train: true, SpanPrefix: "roofline."})
	st := p.Stats()
	if st.ForwardBytes <= 0 || st.BackwardBytes <= 0 || st.ForwardFlops <= 0 || st.BackwardFlops <= 0 {
		t.Fatalf("roofline stats empty: %+v", st)
	}
	// Sparse sweeps dominate this graph; bytes must at least cover the CSR
	// value traffic of the spmm (8·nnz·k) to be a credible denominator.
	if st.ForwardBytes < int64(8*a.NNZ()*k) {
		t.Fatalf("ForwardBytes %d implausibly small for nnz=%d k=%d", st.ForwardBytes, a.NNZ(), k)
	}

	before := metrics.Default.Snapshot()
	bytes0 := metrics.PlanBytesTotal.Value()
	flops0 := metrics.PlanFlopsTotal.Value()
	spans0 := obs.Main().Recorded()

	p.Forward(h)
	p.Backward(r)

	after := metrics.Default.Snapshot()
	wantBytes := st.ForwardBytes + st.BackwardBytes
	wantFlops := st.ForwardFlops + st.BackwardFlops
	if got := metrics.PlanBytesTotal.Value() - bytes0; got != wantBytes {
		t.Errorf("PlanBytesTotal delta = %d, want %d", got, wantBytes)
	}
	if got := metrics.PlanFlopsTotal.Value() - flops0; got != wantFlops {
		t.Errorf("PlanFlopsTotal delta = %d, want %d", got, wantFlops)
	}

	diffFam := func(name string) map[string]int64 {
		b, a := before.CounterFamily(name), after.CounterFamily(name)
		out := map[string]int64{}
		for op, v := range a {
			if d := v - b[op]; d != 0 {
				out[op] = d
			}
		}
		return out
	}
	byBytes := diffFam("agnn_op_bytes_total")
	byFlops := diffFam("agnn_op_flops_total")
	if got := opFamilySum(byBytes); got != wantBytes {
		t.Errorf("per-op byte family sums to %d, want %d (%v)", got, wantBytes, byBytes)
	}
	if got := opFamilySum(byFlops); got != wantFlops {
		t.Errorf("per-op flop family sums to %d, want %d (%v)", got, wantFlops, byFlops)
	}
	for _, op := range []string{"spmm", "mm", "fused-attn", "sigma"} {
		if byBytes[op] <= 0 || byFlops[op] <= 0 {
			t.Errorf("op class %q missing from roofline families (bytes=%d flops=%d)", op, byBytes[op], byFlops[op])
		}
	}

	// Every executed op left one event on the process log — the plan was
	// compiled on a goroutine bound to no rank — whose flight dump carries
	// its bytes/flops payload.
	wantSpans := uint64(st.ForwardOps + st.BackwardOps)
	if got := obs.Main().Recorded() - spans0; got != wantSpans {
		t.Errorf("flight span events = %d, want %d", got, wantSpans)
	}
	found := false
	for _, lane := range flight.Capture(evlog.Default, "manual").Lanes {
		for _, ev := range lane.Events {
			if lane.Rank == -1 && ev.Kind == "span" && ev.Name == "roofline.Z" && ev.B > 0 && ev.C > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("spmm span event with bytes/flops payload not found in flight lane")
	}
}

// TestOpBytesModelShapes pins the relative structure of the traffic model:
// sparse sweeps scale with nnz·k, dense kernels with r·k·c, backward
// doubles forward, a dot-product score chain gathers a k-wide row per
// non-zero on top of the aggregation's, and a fused backward costs less than
// the per-op VJPs it replaces.
func TestOpBytesModelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const k = 4
	small := weightedGraph(30, 90, 22)
	big := weightedGraph(30, 360, 23)

	stFor := func(a *sparse.CSR) fuse.PlanStats {
		g := buildVA(a, randParam(rng, "W", k, k), k)
		return g.MustCompile(fuse.Options{Train: true}).Stats()
	}
	s0, s1 := stFor(small), stFor(big)
	if s1.ForwardBytes <= s0.ForwardBytes {
		t.Errorf("4× denser pattern must move more bytes: %d vs %d", s1.ForwardBytes, s0.ForwardBytes)
	}
	if s0.BackwardBytes < s0.ForwardBytes {
		t.Errorf("backward traffic %d below forward %d; VJP model should dominate", s0.BackwardBytes, s0.ForwardBytes)
	}

	// The VA inference plan is mm → fused-attn → sigma. Its sweep reads,
	// per non-zero, the index, two score operands, the Y row of H·Hᵀ and
	// the aggregated HW row — the dot-score term is what separates it from
	// a GAT-shaped sweep, whose scores are two scalars.
	r, nz := int64(small.Rows), int64(small.NNZ())
	const fb = 8
	mm := fb * (r*k + k*k + r*k)
	attn := 4*nz + 2*fb*nz + fb*nz*k + fb*(nz*k+r*k)
	sigma := 2 * fb * r * k
	va := buildVA(small, randParam(rng, "W", k, k), k).MustCompile(fuse.Options{}).Stats()
	if va.ForwardBytes != mm+attn+sigma {
		t.Errorf("VA inference forward bytes = %d, want mm %d + fused-attn %d + sigma %d", va.ForwardBytes, mm, attn, sigma)
	}
	// In the (Ψ·H)·W order — gnn's VA and AGNN — the sweep aggregates the rows
	// it took the dot products with: one k-wide row per non-zero, not two.
	// AGNN's sweep adds the two softmax passes, and its norms run first.
	shared := attn - fb*nz*k
	vaAgg := buildVAOrder(small, randParam(rng, "W", k, k), k, true).MustCompile(fuse.Options{}).Stats()
	if vaAgg.ForwardBytes != shared+mm+sigma {
		t.Errorf("(Ψ·H)·W VA inference forward bytes = %d, want fused-attn %d + mm %d + sigma %d", vaAgg.ForwardBytes, shared, mm, sigma)
	}
	agnnAgg := buildAGNNOrder(small, randParam(rng, "W", k, k), randParam(rng, "beta", 1, 1), k, tanhAct, true).
		MustCompile(fuse.Options{}).Stats()
	rownorm := fb * (r*k + r)
	if want := rownorm + shared + 2*fb*nz + mm + sigma; agnnAgg.ForwardBytes != want {
		t.Errorf("(Ψ·H)·W AGNN inference forward bytes = %d, want %d", agnnAgg.ForwardBytes, want)
	}
	gat := buildGAT(small, randParam(rng, "W", k, k), randParam(rng, "a1", k, 1), randParam(rng, "a2", k, 1), k, 0.2).
		MustCompile(fuse.Options{}).Stats()
	matvecs := 2 * fb * (r*k + k + r)
	if want := mm + matvecs + attn - fb*nz*k + 2*fb*nz + sigma; gat.ForwardBytes != want {
		t.Errorf("GAT inference forward bytes = %d, want %d (no gathered score row, two softmax passes)", gat.ForwardBytes, want)
	}
	// GAT's fused backward — two sweeps for the chain's five VJP sweeps —
	// moves fewer bytes and does fewer flops than the per-op VJPs.
	gatTrain := func(opt fuse.Options) fuse.PlanStats {
		opt.Train = true
		g := buildGAT(small, randParam(rng, "W", k, k), randParam(rng, "a1", k, 1), randParam(rng, "a2", k, 1), k, 0.2)
		return g.MustCompile(opt).Stats()
	}
	fused, perOp := gatTrain(fuse.Options{}), gatTrain(fuse.Options{NoAttnFuse: true})
	if fused.BackwardBytes >= perOp.BackwardBytes || fused.BackwardFlops >= perOp.BackwardFlops {
		t.Errorf("GAT backward: fused %d B, %d flops; per op %d B, %d flops — want the fused estimate below",
			fused.BackwardBytes, fused.BackwardFlops, perOp.BackwardBytes, perOp.BackwardFlops)
	}
	// Its training forward keeps each row's max and reciprocal sum for the
	// backward, which recomputes Ψ, not the nnz scores; its backward reads
	// no Ψ, keeps ρ per row, no C̄, and gathers u_i, m_i, c_i and ρ_i per
	// non-zero.
	if want := gat.ForwardBytes + 2*fb*r; fused.ForwardBytes != want {
		t.Errorf("GAT training forward bytes = %d, want the inference forward's + 2·n row statistics = %d", fused.ForwardBytes, want)
	}
	attnBwd := 2*4*4*nz + fb*(nz*(2*k+5)+r*(4*k+8))
	if want := 2*(mm+matvecs+sigma) + attnBwd; fused.BackwardBytes != want {
		t.Errorf("GAT backward bytes = %d, want the dense VJPs' %d + the fused attention VJP's %d",
			fused.BackwardBytes, 2*(mm+matvecs+sigma), attnBwd)
	}
}

// TestRooflineBytesScaleWithDType: one traffic model serves both element
// widths, so an f32 plan's byte estimate is the f64 plan's with every value
// term at 4 B instead of 8 B and the int32 index traffic unchanged — for
// training and inference plans, forward and backward. Index traffic is
// counted independently here: 4 B per non-zero per pattern sweep (doubled
// for backward ops, like every backward estimate). The training-only term
// is checked on its own: a fused-attn sweep of a training plan additionally
// writes what its backward reads, at either width — the normalized scores,
// one value per non-zero, or under GAT's fused backward, which recomputes
// them, each row's max and reciprocal sum, two values per row.
// With the index traffic included the f32 estimate must stay within 0.6× of
// the f64 one: the byte half of the mixed-precision claim, exact because the
// model is static (infer-hub's step_s_p10 in bench/ holds the time half).
func TestRooflineBytesScaleWithDType(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := weightedGraph(40, 160, 24)
	const k = 4
	nnz := int64(a.NNZ())
	w := randParam(rng, "W", k, k)
	beta := randParam(rng, "beta", 1, 1)
	a1, a2 := randParam(rng, "a1", k, 1), randParam(rng, "a2", k, 1)

	// Ops whose sweep reads the pattern's column indices once.
	fwdSweeps := []string{"spmm", "mask", "fused-softmax", "fused-attn"}
	// A sum's VJP is no sweep at all (both operands share its cotangent
	// buffer), and neither is a pattern-only mask's — GAT's.
	bwdSweeps := map[string]bool{"spmm": true, "mask": true, "mmt": true, "outer": true,
		"divide": true, "scale": true, "rep": true, "repT": true, "lrelu": true}

	for _, tc := range []struct {
		name         string
		build        func() *fuse.Graph
		weightedMask bool
		kept         int64 // words a fused sweep of a training plan writes for the backward
	}{
		{"va", func() *fuse.Graph { return buildVA(a, w, k) }, true, nnz},
		{"agnn", func() *fuse.Graph { return buildAGNN(a, w, beta, k) }, true, nnz},
		{"va (Ψ·H)·W", func() *fuse.Graph { return buildVAOrder(a, w, k, true) }, true, nnz},
		{"agnn (Ψ·H)·W", func() *fuse.Graph { return buildAGNNOrder(a, w, beta, k, tanhAct, true) }, true, nnz},
		{"gat", func() *fuse.Graph { return buildGAT(a, w, a1, a2, k, 0.2) }, false, 2 * int64(a.Rows)},
		{"gcn", func() *fuse.Graph { return buildGCN(a, w, k, reluAct) }, true, nnz},
	} {
		stats := map[tensor.DType]map[bool]fuse.PlanStats{tensor.F64: {}, tensor.F32: {}}
		for _, train := range []bool{true, false} {
			for dt := range stats {
				stats[dt][train] = tc.build().MustCompile(fuse.Options{Train: train, DType: dt}).Stats()
			}
			s64, s32 := stats[tensor.F64][train], stats[tensor.F32][train]

			var idxFwd, idxBwd int64
			for _, op := range fwdSweeps {
				idxFwd += 4 * nnz * int64(s64.OpCounts[op])
			}
			if train {
				for _, n := range tc.build().DAG().Nodes() {
					if bwdSweeps[n.Op] && (n.Op != "mask" || tc.weightedMask) {
						idxBwd += 2 * 4 * nnz
					}
				}
			}
			if got, want := s64.ForwardBytes-idxFwd, 2*(s32.ForwardBytes-idxFwd); got != want || got <= 0 {
				t.Errorf("%s train=%v: f64 forward value bytes %d, want twice f32's = %d", tc.name, train, got, want)
			}
			if ratio := float64(s32.ForwardBytes) / float64(s64.ForwardBytes); ratio > 0.6 {
				t.Errorf("%s train=%v: f32 forward moves %.3f× the f64 bytes, want <= 0.6×", tc.name, train, ratio)
			}
			if got, want := s64.BackwardBytes-idxBwd, 2*(s32.BackwardBytes-idxBwd); got != want || (train && got <= 0) {
				t.Errorf("%s train=%v: f64 backward value bytes %d, want twice f32's = %d", tc.name, train, got, want)
			}
		}
		for dt, byMode := range stats {
			want := dt.Size() * tc.kept * int64(byMode[true].AttnFused)
			if got := byMode[true].ForwardBytes - byMode[false].ForwardBytes; got != want {
				t.Errorf("%s %s: training forward moves %d more bytes than inference, want %d (what each fused sweep keeps)",
					tc.name, dt, got, want)
			}
		}
	}
}
