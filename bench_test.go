// Repository-level benchmarks: one benchmark family per reproduced table or
// figure of the paper's evaluation (Figures 6–8 and the Section 8.4
// verification), plus microbenchmarks of the Table 2 kernels and the
// ablations called out in DESIGN.md (fusion, Φ∘⊕ order, scheduling,
// semiring genericity), the ablations timed on the compiled plans the
// program runs.
//
// Figure benchmarks run the small-scale sweeps; regenerate the full data
// series with `go run ./cmd/agnn-plots -scale full`. Each figure benchmark
// reports the measured communication volume via b.ReportMetric.
package agnn_test

import (
	"fmt"
	"math/rand"
	"testing"

	"agnn/internal/benchutil"
	"agnn/internal/dist"
	"agnn/internal/distgnn"
	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/local"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// ---------------------------------------------------------------------------
// Table 2 kernel microbenchmarks.
// ---------------------------------------------------------------------------

const (
	benchN = 1 << 13 // 8192 vertices
	benchK = 32
)

func benchGraph(b *testing.B) *sparse.CSR {
	b.Helper()
	return graph.Kronecker(13, 16, 1)
}

func benchDense(r, c int, seed int64) *tensor.Dense {
	return tensor.RandN(r, c, 1, rand.New(rand.NewSource(seed)))
}

func BenchmarkKernelSpMM(b *testing.B) {
	a := benchGraph(b)
	h := benchDense(benchN, benchK, 2)
	out := tensor.NewDense(benchN, benchK)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulDenseInto(out, h)
	}
	b.ReportMetric(float64(a.NNZ()*benchK)/1e6, "Mflop/op")
}

func BenchmarkKernelSDDMM(b *testing.B) {
	a := benchGraph(b)
	h := benchDense(benchN, benchK, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.SDDMM(a, h, h)
	}
}

func BenchmarkKernelMM(b *testing.B) {
	h := benchDense(benchN, benchK, 4)
	w := benchDense(benchK, benchK, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MM(h, w)
	}
}

func BenchmarkKernelGraphSoftmax(b *testing.B) {
	a := benchGraph(b)
	h := benchDense(benchN, benchK, 10)
	s := sparse.SDDMM(a, h, h)
	vals := make([]float64, s.NNZ())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.RowSoftmaxInto(vals, s)
	}
}

// BenchmarkKernelSemiringSpMM is the specialisation-vs-genericity ablation
// of Section 4.3: the inference plan of one generic layer Ψ = A with ⊕ = sum
// (op spmm, the real product) against ⊕ = max and mean (op spmm-max /
// spmm-mean, the semiring fold).
func BenchmarkKernelSemiringSpMM(b *testing.B) {
	a := benchGraph(b)
	h := benchDense(benchN, benchK, 11)
	for _, agg := range []gnn.Agg{gnn.SumAgg(), gnn.MaxAgg(), gnn.MeanAgg()} {
		l := gnn.NewGenericLayer(a, gnn.GenericLayer{Psi: gnn.AdjacencyPsi(), Agg: agg})
		b.Run(agg.Kind, func(b *testing.B) {
			l.Forward(h, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Forward(h, false)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 5 ablation: fused vs unfused attention pipelines.
// ---------------------------------------------------------------------------

// BenchmarkFusionAblation times a GAT layer's inference plan with its
// attention fused into one sweep (no Ψ, no score matrix) against the plan
// compiled under NoAttnFuse (Ψ sampled and normalised into a buffer, then
// the SpMM).
func BenchmarkFusionAblation(b *testing.B) {
	a := benchGraph(b)
	h := benchDense(benchN, benchK, 13)
	l := gnn.NewGATLayer(a, benchK, benchK, gnn.ReLU(), 0.2, rand.New(rand.NewSource(14)))
	for _, noFuse := range []bool{false, true} {
		g := fuse.NewGraph("gat", a)
		l.DAG(g, g.InputDense("H", a.Rows, benchK))
		p := g.MustCompile(fuse.Options{NoAttnFuse: noFuse})
		name := "gat-attention/fused"
		if noFuse {
			name = "gat-attention/unfused"
		}
		b.Run(name, func(b *testing.B) {
			p.Forward(h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Forward(h)
			}
		})
		p.Release()
	}
}

// BenchmarkPhiOrderAblation measures the Section 4.4 Φ∘⊕ order choice:
// projecting features before aggregation shrinks the SpMM operand when
// k_out < k_in.
func BenchmarkPhiOrderAblation(b *testing.B) {
	a := benchGraph(b)
	kIn, kOut := 128, 16
	h := benchDense(benchN, kIn, 15)
	w := benchDense(kIn, kOut, 16)
	psi := sparse.SDDMM(a, benchDense(benchN, 8, 17), benchDense(benchN, 8, 18))
	hw, psiHW := tensor.NewDense(benchN, kOut), tensor.NewDense(benchN, kOut)
	psiH, psiHW2 := tensor.NewDense(benchN, kIn), tensor.NewDense(benchN, kOut)
	b.Run("phi-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MMInto(hw, h, w)
			psi.MulDenseInto(psiHW, hw) // Ψ·(H·W)
		}
	})
	b.Run("agg-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psi.MulDenseInto(psiH, h)
			tensor.MMInto(psiHW2, psiH, w) // (Ψ·H)·W
		}
	})
}

// BenchmarkScheduleAblation compares the nnz-balanced row partitioning used
// by the sparse kernels against naive row-count balancing on a heavy-tail
// graph.
func BenchmarkScheduleAblation(b *testing.B) {
	a := benchGraph(b)
	h := benchDense(benchN, benchK, 19)
	out := tensor.NewDense(benchN, benchK)
	spmmRows := func(lo, hi int) {
		k := h.Cols
		for i := lo; i < hi; i++ {
			orow := out.Data[i*k : (i+1)*k]
			for t := range orow {
				orow[t] = 0
			}
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				v := a.ValueAt(p)
				xrow := h.Data[int(a.Col[p])*k : int(a.Col[p])*k+k]
				for t, xv := range xrow {
					orow[t] += v * xv
				}
			}
		}
	}
	b.Run("nnz-balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.RangeWeighted(a.Rows, func(r int) int64 { return int64(a.RowNNZ(r)) },
				func(_, lo, hi int) { spmmRows(lo, hi) })
		}
	})
	b.Run("row-balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.Range(a.Rows, func(_, lo, hi int) { spmmRows(lo, hi) })
		}
	})
}

// ---------------------------------------------------------------------------
// Global vs local formulation, single node (the per-node compute story).
// ---------------------------------------------------------------------------

func BenchmarkGlobalVsLocalSingleNode(b *testing.B) {
	a := graph.Kronecker(12, 16, 20)
	n := a.Rows
	h := benchDense(n, 16, 21)
	for _, kind := range []gnn.Kind{gnn.VA, gnn.AGNN, gnn.GAT} {
		global, err := gnn.New(gnn.Config{Model: kind, Layers: 3, InDim: 16,
			HiddenDim: 16, OutDim: 16, Activation: gnn.ReLU(), SelfLoops: true, Seed: 22}, a)
		if err != nil {
			b.Fatal(err)
		}
		loc, err := local.Mirror(global)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/global", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				global.Forward(h, false)
			}
		})
		b.Run(fmt.Sprintf("%s/local", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loc.Forward(h, false)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure benchmarks: each runs the small-scale sweep of one paper figure
// and reports median runtime and measured per-rank communication volume.
// ---------------------------------------------------------------------------

func runFigure(b *testing.B, fig benchutil.Figure) {
	for _, s := range fig.Specs {
		s := s
		task := "train"
		if s.Inference {
			task = "infer"
		}
		name := fmt.Sprintf("%s/%s/%s/p%d/n%d/m%d/k%d", s.Model, s.Engine, task,
			s.Ranks, s.Vertices, s.Edges, s.Features)
		b.Run(name, func(b *testing.B) {
			var totalComm float64
			for i := 0; i < b.N; i++ {
				r, err := benchutil.RunSpec(s)
				if err != nil {
					b.Fatal(err)
				}
				totalComm += float64(r.CommBytesMax)
			}
			b.ReportMetric(totalComm/float64(b.N), "commB/op")
		})
	}
}

func BenchmarkFig6StrongScaling(b *testing.B) { runFigure(b, benchutil.Fig6(benchutil.ScaleSmall)) }
func BenchmarkFig7MAKG(b *testing.B)          { runFigure(b, benchutil.Fig7MAKG(benchutil.ScaleSmall)) }
func BenchmarkFig7RandWeakScaling(b *testing.B) {
	runFigure(b, benchutil.Fig7Rand(benchutil.ScaleSmall))
}
func BenchmarkFig8WeakScaling(b *testing.B) { runFigure(b, benchutil.Fig8(benchutil.ScaleSmall)) }
func BenchmarkVerifyTheory(b *testing.B)    { runFigure(b, benchutil.FigVerify(benchutil.ScaleSmall)) }

// ---------------------------------------------------------------------------
// Layout ablation (replication factor) and extension benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkLayoutAblation compares the per-rank communication volume and
// wall time of the 2D A-stationary grid (the paper's distribution) against
// the no-replication 1D row layout — the same engine on the p×1 grid — at
// p = 16.
func BenchmarkLayoutAblation(b *testing.B) {
	n, k, p := 1<<12, 16, 16
	a := graph.Kronecker(12, 8, 23)
	h := benchDense(n, k, 24)
	cfg := gnn.Config{Model: gnn.GAT, Layers: 3, InDim: k, HiddenDim: k,
		OutDim: k, Activation: gnn.Tanh(), SelfLoops: true, Seed: 25}
	for _, layout := range []struct {
		name      string
		newEngine func(*dist.Comm, *sparse.CSR, gnn.Config) (*distgnn.GlobalEngine, error)
	}{{"2d-grid", distgnn.NewGlobalEngine}, {"1d-rows", distgnn.NewRowGrid}} {
		b.Run(layout.name, func(b *testing.B) {
			var comm float64
			for i := 0; i < b.N; i++ {
				cs := dist.Run(p, func(c *dist.Comm) {
					e, err := layout.newEngine(c, a, cfg)
					if err != nil {
						b.Error(err)
						return
					}
					defer e.Close()
					e.Forward(e.SliceOwnedBlock(h), false)
				})
				comm += float64(dist.MaxCounters(cs).BytesSent)
			}
			b.ReportMetric(comm/float64(b.N), "commB/op")
		})
	}
}

// BenchmarkMultiHeadGAT measures the K-head extension's forward pass.
func BenchmarkMultiHeadGAT(b *testing.B) {
	a := graph.Kronecker(12, 8, 26)
	h := benchDense(a.Rows, 32, 27)
	for _, heads := range []int{1, 4, 8} {
		rng := rand.New(rand.NewSource(28))
		l := gnn.NewMultiHeadGATLayer(a, 32, 8, heads, true, gnn.ELU(1), 0.2, rng)
		b.Run(fmt.Sprintf("heads-%d", heads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Forward(h, false)
			}
		})
	}
}
