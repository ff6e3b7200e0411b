package fuse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/graph"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The dense projection runs on sparse.GatherAxpy / GatherDots with the
// identity index. These tests hold it to the hand-written loops it replaced.

// mmGraph is the one-op graph H·W over n rows (the pattern is not used).
func mmGraph(n, k int, w fuse.ParamRef) *fuse.Graph {
	g := fuse.NewGraph("mm", sparse.FromCOO(sparse.NewCOO(n, n, 0)))
	g.SetOutput(g.MM("HW", g.InputDense("H", n, k), g.ParamNode("W", w)))
	return g
}

// loopMM is the deleted forward loop of opMM, zero-feature skip included.
func loopMM[T tensor.Elem](out, x, w []T, n, k, m int) {
	for i := 0; i < n; i++ {
		orow := out[i*m : (i+1)*m]
		clear(orow)
		for t := 0; t < k; t++ {
			xv := x[i*k+t]
			if xv == 0 {
				continue
			}
			for j, wv := range w[t*m : (t+1)*m] {
				orow[j] += xv * wv
			}
		}
	}
}

// loopMMVJPInput is the deleted input-cotangent loop of opMMVJP:
// X̄[i,t] += Σ_j Ḡ[i,j]·W[t,j], X̄ zero on entry.
func loopMMVJPInput[T tensor.Elem](xg, g, w []T, n, k, m int) {
	for i := 0; i < n; i++ {
		grow := g[i*m : (i+1)*m]
		for t := 0; t < k; t++ {
			wrow := w[t*m : (t+1)*m]
			var s T
			for j, gv := range grow {
				s += gv * wrow[j]
			}
			xg[i*k+t] += s
		}
	}
}

// loopMMVJPWeight is the deleted weight-gradient loop of opMMVJP — rank-1
// updates row by row, zero features skipped, into one partial per worker of
// par.Range, the partials then added to W̄ (zero on entry) in worker order.
func loopMMVJPWeight[T tensor.Elem](wg, x, g []T, n, k, m int) {
	parts := make([][]T, par.Workers()+1)
	par.Range(n, func(worker, lo, hi int) {
		acc := make([]T, k*m)
		parts[worker] = acc
		for i := lo; i < hi; i++ {
			grow := g[i*m : (i+1)*m]
			for t, xv := range x[i*k : (i+1)*k] {
				if xv == 0 {
					continue
				}
				arow := acc[t*m : (t+1)*m]
				for j, gv := range grow {
					arow[j] += xv * gv
				}
			}
		}
	})
	for _, part := range parts {
		for i, v := range part {
			wg[i] += v
		}
	}
}

// viaLoops evaluates the three loops at width T on float64 data the way a
// plan of that width does: round in, compute, widen out.
func viaLoops[T tensor.Elem](h, w, g *tensor.Dense) (out, gin, wgrad []float64) {
	n, k, m := h.Rows, h.Cols, w.Cols
	ht, wt, gt := make([]T, n*k), make([]T, k*m), make([]T, n*m)
	tensor.Cast(ht, h.Data)
	tensor.Cast(wt, w.Data)
	tensor.Cast(gt, g.Data)
	ot, xg, wg := make([]T, n*m), make([]T, n*k), make([]T, k*m)
	loopMM(ot, ht, wt, n, k, m)
	loopMMVJPInput(xg, gt, wt, n, k, m)
	loopMMVJPWeight(wg, ht, gt, n, k, m)
	out, gin, wgrad = make([]float64, n*m), make([]float64, n*k), make([]float64, k*m)
	tensor.Cast(out, ot)
	tensor.Cast(gin, xg)
	tensor.Cast(wgrad, wg)
	return out, gin, wgrad
}

func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestMMMatchesDeletedLoops: forward output, input cotangent and weight
// gradient of a compiled H·W equal the deleted hand loops bit for bit on
// finite data — zero and negative-zero features included, which the old
// forward and weight-gradient loops skipped — at both widths, for shapes on
// every side of the kernels' seams (k under and over eight rows of W; m under
// a vector register, whole registers, a whole strip, strips plus registers
// plus columns over). The 300 rows are two whole blocks of the weight
// gradient's transpose and a part of one on one worker, three parts on three.
func TestMMMatchesDeletedLoops(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	for _, workers := range []int{1, 3} {
		par.SetWorkers(workers)
		for _, shape := range []struct{ k, m int }{{32, 32}, {6, 6}, {12, 20}, {8, 7}, {5, 40}, {40, 72}, {33, 31}, {16, 8}} {
			rng := rand.New(rand.NewSource(int64(100*shape.k + shape.m)))
			const n = 300
			h, g := randDense(rng, n, shape.k), randDense(rng, n, shape.m)
			for i := range h.Data {
				switch rng.Intn(6) {
				case 0:
					h.Data[i] = 0
				case 1:
					h.Data[i] = math.Copysign(0, -1)
				}
			}
			for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
				w := randParam(rng, "W", shape.k, shape.m)
				p := mmGraph(n, shape.k, w).MustCompile(fuse.Options{Train: true, DType: dt})
				out := p.Forward(h)
				gin := p.Backward(g)
				wantOut, wantGin, wantGrad := viaLoops[float64](h, w.Value, g)
				if dt == tensor.F32 {
					wantOut, wantGin, wantGrad = viaLoops[float32](h, w.Value, g)
				}
				name := fmt.Sprintf("k=%d m=%d %s workers=%d", shape.k, shape.m, dt, workers)
				if i := firstBitDiff(out.Data, wantOut); i >= 0 {
					t.Errorf("%s: out[%d] = %v, deleted loop %v", name, i, out.Data[i], wantOut[i])
				}
				if i := firstBitDiff(gin.Data, wantGin); i >= 0 {
					t.Errorf("%s: input cotangent[%d] = %v, deleted loop %v", name, i, gin.Data[i], wantGin[i])
				}
				if i := firstBitDiff(w.Grad.Data, wantGrad); i >= 0 {
					t.Errorf("%s: weight gradient[%d] = %v, deleted loop %v", name, i, w.Grad.Data[i], wantGrad[i])
				}
				p.Release()
			}
		}
	}
}

// TestMMPropagatesNonFinite: a non-finite weight must reach every output row,
// also those whose matching feature is zero — 0·Inf is NaN. The loop opMM
// had before it ran on GatherAxpy skipped zero features and hid it.
func TestMMPropagatesNonFinite(t *testing.T) {
	for _, shape := range []struct{ k, m int }{{32, 32}, {6, 5}} {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			rng := rand.New(rand.NewSource(7))
			const n = 9
			w := randParam(rng, "W", shape.k, shape.m)
			w.Value.Data[2*shape.m+3] = math.Inf(1) // W[2,3]
			h := randDense(rng, n, shape.k)
			h.Data[4*shape.k+2] = 0 // H[4,2]
			out := mmGraph(n, shape.k, w).MustCompile(fuse.Options{DType: dt}).Forward(h)
			for i := 0; i < n; i++ {
				got := out.Data[i*shape.m+3]
				if i == 4 && !math.IsNaN(got) {
					t.Errorf("k=%d m=%d %s: out[4,3] = %v with H[4,2] = 0 and W[2,3] = +Inf, want NaN", shape.k, shape.m, dt, got)
				}
				if i != 4 && !math.IsInf(got, 0) {
					t.Errorf("k=%d m=%d %s: out[%d,3] = %v, want ±Inf", shape.k, shape.m, dt, i, got)
				}
			}
		}
	}
}

// TestMMVJPPropagatesNonFinite: a non-finite output cotangent must reach the
// weight gradient also through a zero feature, as a non-finite weight reaches
// the output (above) and the input cotangent: the rank-1 loop the weight
// gradient had before it ran on GatherAxpy skipped zero features and hid it.
func TestMMVJPPropagatesNonFinite(t *testing.T) {
	for _, shape := range []struct{ k, m int }{{32, 32}, {6, 5}} {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			rng := rand.New(rand.NewSource(8))
			const n = 200
			w := randParam(rng, "W", shape.k, shape.m)
			h, g := randDense(rng, n, shape.k), randDense(rng, n, shape.m)
			h.Data[150*shape.k+2] = 0           // H[150,2]
			g.Data[150*shape.m+3] = math.Inf(1) // Ḡ[150,3]
			p := mmGraph(n, shape.k, w).MustCompile(fuse.Options{Train: true, DType: dt})
			p.Forward(h)
			p.Backward(g)
			for tt := 0; tt < shape.k; tt++ {
				got := w.Grad.Data[tt*shape.m+3]
				if tt == 2 && !math.IsNaN(got) {
					t.Errorf("k=%d m=%d %s: W̄[2,3] = %v with H[150,2] = 0 and Ḡ[150,3] = +Inf, want NaN", shape.k, shape.m, dt, got)
				}
				if tt != 2 && !math.IsInf(got, 0) {
					t.Errorf("k=%d m=%d %s: W̄[%d,3] = %v, want ±Inf", shape.k, shape.m, dt, tt, got)
				}
			}
			p.Release()
		}
	}
}

// BenchmarkMM times the dense projection through the plan op, next to
// BenchmarkGatherDots/Axpy of internal/sparse, at the two BENCHMARK.json
// shapes: the forward H·W; on a training plan forward plus backward; and as
// "bwd" the backward pass alone — the input cotangent through GatherDots and
// the weight gradient through GatherAxpy over transposed blocks of H, the
// half of a training step this op spends on the scatter side. ns/row counts
// one row of H per sweep; GB/s is the traffic of those rows (H and the
// output, read or written once; W stays in cache).
func BenchmarkMM(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		dt   tensor.DType
	}{{"hub-f32", 1 << 16, tensor.F32}, {"flat-f64", 1 << 15, tensor.F64}} {
		for _, mode := range []struct {
			suffix   string
			fwd, bwd bool
			sweeps   float64
		}{{"", true, false, 1}, {"-train", true, true, 3}, {"-bwd", false, true, 2}} {
			b.Run(c.name+mode.suffix, func(b *testing.B) {
				const k = 32
				rng := rand.New(rand.NewSource(3))
				h, g := randDense(rng, c.n, k), randDense(rng, c.n, k)
				p := mmGraph(c.n, k, randParam(rng, "W", k, k)).MustCompile(fuse.Options{Train: mode.bwd, DType: c.dt})
				defer p.Release()
				p.Forward(h)
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					if mode.fwd {
						p.Forward(h)
					}
					if mode.bwd {
						p.Backward(g)
					}
				}
				rows := float64(b.N) * float64(c.n) * mode.sweeps
				b.ReportMetric(b.Elapsed().Seconds()*1e9/rows, "ns/row")
				b.ReportMetric(rows*2*k*float64(c.dt.Size())/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}

// BenchmarkProjectOrder times one f32 AGNN inference layer in the two orders
// of Z = Ψ·H·W on a heavy-tailed graph (2^15 vertices, 0.5 M edges): Ψ·(H·W)
// gathers an in-wide row of H for the score and an out-wide row of H·W for
// the aggregation, (Ψ·H)·W gathers the same in-wide row for both and projects
// n rows afterwards. Square, narrowing and widening W — what the rule in
// gnn.aggregateProject is read off (EXPERIMENTS.md "One row fetch per edge").
func BenchmarkProjectOrder(b *testing.B) {
	a := graph.Kronecker(15, 16, 5)
	for _, dims := range [][2]int{{32, 32}, {64, 32}, {128, 16}, {32, 64}, {16, 128}} {
		in, out := dims[0], dims[1]
		for _, aggFirst := range []bool{false, true} {
			name := fmt.Sprintf("%dx%d/project-first", in, out)
			if aggFirst {
				name = fmt.Sprintf("%dx%d/aggregate-first", in, out)
			}
			b.Run(name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(6))
				h := randDense(rng, a.Rows, in)
				g := buildAGNNOrder(a, randParam(rng, "W", in, out), randParam(rng, "beta", 1, 1), in, reluAct, aggFirst)
				p := g.MustCompile(fuse.Options{DType: tensor.F32})
				defer p.Release()
				p.Forward(h)
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					p.Forward(h)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(a.NNZ())), "ns/edge")
			})
		}
	}
}
