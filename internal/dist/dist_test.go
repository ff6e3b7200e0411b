package dist

import (
	"math"
	"sync/atomic"
	"testing"
)

func seq(n int, offset float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = offset + float64(i)
	}
	return v
}

func TestRunSpawnsAllRanks(t *testing.T) {
	var count int64
	Run(7, func(c *Comm) {
		atomic.AddInt64(&count, 1)
		if c.Size() != 7 || c.Rank() != c.GlobalRank() {
			t.Error("world communicator metadata wrong")
		}
	})
	if count != 7 {
		t.Fatalf("ran %d ranks", count)
	}
}

func TestSendRecv(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, []float64{1, 2, 3})
		} else {
			got := c.Recv(0)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("Recv = %v", got)
			}
		}
	})
}

func TestSendCopiesData(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1}
			c.Send(1, buf)
			buf[0] = 99 // must not affect the receiver
		} else {
			if got := c.Recv(0); got[0] != 1 {
				t.Errorf("message aliased sender buffer: %v", got)
			}
		}
	})
}

func TestBcastAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for _, n := range []int{1, 5, 100, 1003} {
			for root := 0; root < p; root += max(1, p-1) {
				want := seq(n, 42)
				Run(p, func(c *Comm) {
					var in []float64
					if c.Rank() == root {
						in = want
					}
					got := c.Bcast(in, root)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("p=%d n=%d rank %d: bcast[%d] = %v", p, n, c.Rank(), i, got[i])
							return
						}
					}
				})
			}
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		Run(p, func(c *Comm) {
			// Varying lengths: rank r contributes r+1 values of value r.
			mine := make([]float64, c.Rank()+1)
			for i := range mine {
				mine[i] = float64(c.Rank())
			}
			got := c.Allgather(mine)
			wantLen := p * (p + 1) / 2
			if len(got) != wantLen {
				t.Errorf("p=%d: allgather length %d, want %d", p, len(got), wantLen)
				return
			}
			idx := 0
			for r := 0; r < p; r++ {
				for i := 0; i <= r; i++ {
					if got[idx] != float64(r) {
						t.Errorf("p=%d: allgather[%d] = %v, want %d", p, idx, got[idx], r)
						return
					}
					idx++
				}
			}
			// In place over equal chunks: rank r's chunk holds r.
			const m = 3
			buf := make([]float64, p*m)
			for i := range m {
				buf[c.Rank()*m+i] = float64(c.Rank())
			}
			c.AllgatherInto(buf)
			for i, v := range buf {
				if v != float64(i/m) {
					t.Errorf("p=%d rank %d: in-place allgather[%d] = %v, want %d", p, c.Rank(), i, v, i/m)
					return
				}
			}
		})
	}
}

func TestReduceScatterAndAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6} {
		n := 17
		Run(p, func(c *Comm) {
			data := seq(n, float64(c.Rank()))
			// Element-wise sum over ranks: Σ_r (i + r) = p·i + p(p-1)/2.
			wantAt := func(i int) float64 { return float64(p*i) + float64(p*(p-1))/2 }

			full := c.Allreduce(data)
			for i := 0; i < n; i++ {
				if math.Abs(full[i]-wantAt(i)) > 1e-12 {
					t.Errorf("p=%d: allreduce[%d] = %v, want %v", p, i, full[i], wantAt(i))
					return
				}
			}
			lo, hi := split{n: n, g: p}.chunk(c.Rank())
			c.ReduceScatterInto(data) // in place: this rank's chunk holds the sum
			for i, v := range data[lo:hi] {
				if math.Abs(v-wantAt(lo+i)) > 1e-12 {
					t.Errorf("p=%d rank %d: rs[%d] = %v", p, c.Rank(), i, v)
					return
				}
			}
		})
	}
}

func TestReduce(t *testing.T) {
	for _, root := range []int{0, 2} {
		Run(3, func(c *Comm) {
			got := []float64{float64(c.Rank() + 1), 10}
			c.ReduceInto(got, root)
			if c.Rank() != root {
				return
			}
			if got[0] != 6 || got[1] != 30 {
				t.Errorf("reduce = %v", got)
			}
		})
	}
}

func TestGatherv(t *testing.T) {
	Run(4, func(c *Comm) {
		got := c.Gatherv([]float64{float64(c.Rank())}, 1)
		if c.Rank() == 1 {
			for r := 0; r < 4; r++ {
				if got[r][0] != float64(r) {
					t.Errorf("gatherv[%d] = %v", r, got[r])
				}
			}
		} else if got != nil {
			t.Error("non-root gatherv must return nil")
		}
	})
}

func TestAlltoallv(t *testing.T) {
	p := 4
	Run(p, func(c *Comm) {
		out := make([][]float64, p)
		for r := 0; r < p; r++ {
			out[r] = []float64{float64(100*c.Rank() + r)}
		}
		in := c.Alltoallv(out)
		for r := 0; r < p; r++ {
			want := float64(100*r + c.Rank())
			if in[r][0] != want {
				t.Errorf("alltoall in[%d] = %v, want %v", r, in[r][0], want)
			}
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	var entered int64
	Run(5, func(c *Comm) {
		atomic.AddInt64(&entered, 1)
		c.Barrier()
		if atomic.LoadInt64(&entered) != 5 {
			t.Error("rank left barrier before all entered")
		}
	})
}

func TestGroupCommunicators(t *testing.T) {
	// 2×2 grid: row groups {0,1} and {2,3}; column groups {0,2} and {1,3}.
	Run(4, func(c *Comm) {
		rowRanks := []int{(c.Rank() / 2) * 2, (c.Rank()/2)*2 + 1}
		row := c.Group(rowRanks)
		if row == nil {
			t.Error("rank missing from its own row group")
			return
		}
		sum := row.Allreduce([]float64{float64(c.Rank())})
		want := float64(rowRanks[0] + rowRanks[1])
		if sum[0] != want {
			t.Errorf("row allreduce = %v, want %v", sum[0], want)
		}
		colRanks := []int{c.Rank() % 2, c.Rank()%2 + 2}
		col := c.Group(colRanks)
		sum = col.Allreduce([]float64{float64(c.Rank())})
		want = float64(colRanks[0] + colRanks[1])
		if sum[0] != want {
			t.Errorf("col allreduce = %v, want %v", sum[0], want)
		}
	})
}

func TestGroupReturnsNilForNonMembers(t *testing.T) {
	Run(3, func(c *Comm) {
		g := c.Group([]int{0, 1})
		if c.Rank() == 2 && g != nil {
			t.Error("non-member got a group communicator")
		}
		if c.Rank() != 2 && g == nil {
			t.Error("member did not get a group communicator")
		}
		if c.Rank() != 2 {
			g.Barrier()
		}
	})
}

func TestCountersVolumeOptimality(t *testing.T) {
	// Per-rank bcast volume must stay O(n), not O(n·p): with p = 8 and
	// n = 8000 words, no rank may send more than ~2n words (+ small headers).
	n := 8000
	cs := Run(8, func(c *Comm) {
		var in []float64
		if c.Rank() == 0 {
			in = seq(n, 0)
		}
		c.Bcast(in, 0)
	})
	maxBytes := MaxCounters(cs).BytesSent
	if maxBytes > int64(8*2*n+8*64) {
		t.Fatalf("bcast max per-rank volume %d bytes exceeds 2n words", maxBytes)
	}
	if maxBytes < int64(8*n/2) {
		t.Fatalf("bcast volume %d suspiciously low — counters broken?", maxBytes)
	}
	// Allreduce ≈ 2n per rank.
	cs = Run(8, func(c *Comm) { c.Allreduce(seq(n, 0)) })
	maxBytes = MaxCounters(cs).BytesSent
	if maxBytes > int64(8*3*n) {
		t.Fatalf("allreduce max per-rank volume %d too high", maxBytes)
	}
}

func TestCountersAndNetModel(t *testing.T) {
	cs := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, seq(100, 0))
		} else {
			c.Recv(0)
		}
	})
	if cs[0].BytesSent != 800 || cs[0].MsgsSent != 1 {
		t.Fatalf("sender counters %+v", cs[0])
	}
	if cs[1].BytesSent != 0 {
		t.Fatalf("receiver counters %+v", cs[1])
	}
	total := TotalCounters(cs)
	if total.BytesSent != 800 {
		t.Fatal("TotalCounters wrong")
	}
	m := NetModel{Alpha: 1e-6, Beta: 1e-9}
	want := 1e-6 + 800e-9
	if math.Abs(m.Time(cs[0])-want) > 1e-15 {
		t.Fatalf("NetModel.Time = %v, want %v", m.Time(cs[0]), want)
	}
	if CrayAries().Alpha <= 0 || CrayAries().Beta <= 0 {
		t.Fatal("CrayAries parameters must be positive")
	}
}

func TestNewWorldRejectsBadSize(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("expected error for p=0")
	}
	if _, err := NewWorld(-3); err == nil {
		t.Fatal("expected error for negative p")
	}
}

func TestAllreduceOpMaxMin(t *testing.T) {
	for _, p := range []int{2, 3, 5} {
		Run(p, func(c *Comm) {
			data := []float64{float64(c.Rank()), -float64(c.Rank()), 7}
			mx := c.AllreduceOp(data, OpMax)
			if mx[0] != float64(p-1) || mx[1] != 0 || mx[2] != 7 {
				t.Errorf("p=%d max = %v", p, mx)
			}
			mn := c.AllreduceOp(data, OpMin)
			if mn[0] != 0 || mn[1] != -float64(p-1) || mn[2] != 7 {
				t.Errorf("p=%d min = %v", p, mn)
			}
		})
	}
}

// TestReduceOpInto: each operator's loop computes dst = op(dst, in) with
// the bits of the two-argument form — a + b, a if a > b else b, a if a < b
// else b — over signed zeros, infinities and NaN on either side.
func TestReduceOpInto(t *testing.T) {
	ref := map[ReduceOp]func(a, b float64) float64{
		OpSum: func(a, b float64) float64 { return a + b },
		OpMax: func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		},
		OpMin: func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		},
	}
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(), 1e-310}
	for op, f := range ref {
		var dst, in, want []float64
		for _, a := range vals {
			for _, b := range vals {
				dst, in, want = append(dst, a), append(in, b), append(want, f(a, b))
			}
		}
		op.into(dst, in)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Errorf("op %d: %v, %v gives %v, want %v", op, vals[i/len(vals)], in[i], dst[i], want[i])
			}
		}
	}
}

func TestReduceScatterOpMax(t *testing.T) {
	Run(4, func(c *Comm) {
		data := make([]float64, 8)
		for i := range data {
			data[i] = float64(c.Rank()*10 + i)
		}
		lo, hi := c.reduceScatter(data, OpMax).chunk(c.Rank())
		mine := data[lo:hi]
		for i, v := range mine {
			want := float64(30 + lo + i) // rank 3 dominates
			if v != want {
				t.Errorf("rank %d rsmax[%d] = %v want %v", c.Rank(), i, v, want)
			}
		}
	})
}

// TestInPlaceCollectivesMatchReturning: the in-place forms a lowered plan
// calls leave in the caller's buffer exactly the bits the returning forms
// return — every sum reduced in the same order — and move the same bytes,
// messages and rounds. Values span twelve decades, so a changed summation
// order would show in the bits.
func TestInPlaceCollectivesMatchReturning(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		for _, n := range []int{0, 1, 5, 1003} {
			data := func(rank int) []float64 {
				v := make([]float64, n)
				for i := range v {
					v[i] = math.Sin(float64(7*rank+3*i+1)) * math.Pow(10, float64((i+rank)%13-6))
				}
				return v
			}
			root := p - 1
			run := func(inPlace bool) ([][3][]float64, []Counters) {
				res := make([][3][]float64, p)
				cs := Run(p, func(c *Comm) {
					r := c.Rank()
					var out [3][]float64
					if inPlace {
						out[0] = make([]float64, n)
						if r == root {
							out[0] = data(root)
						}
						c.BcastInto(out[0], root)
						out[1], out[2] = data(r), data(r)
						c.AllreduceInto(out[1])
						c.AllreduceOpInto(out[2], OpMax)
					} else {
						var in []float64
						if r == root {
							in = data(root)
						}
						out[0] = c.Bcast(in, root)
						out[1] = c.Allreduce(data(r))
						out[2] = c.AllreduceOp(data(r), OpMax)
					}
					res[r] = out
				})
				return res, cs
			}
			want, wantCs := run(false)
			got, gotCs := run(true)
			for r := 0; r < p; r++ {
				if gotCs[r] != wantCs[r] {
					t.Errorf("p=%d n=%d rank %d: counters %+v in place, %+v returning", p, n, r, gotCs[r], wantCs[r])
				}
				for k, name := range []string{"bcast", "allreduce", "allreduce-max"} {
					g, w := got[r][k], want[r][k]
					if len(g) != len(w) {
						t.Fatalf("p=%d n=%d rank %d %s: %d words in place, %d returning", p, n, r, name, len(g), len(w))
					}
					for i := range g {
						if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
							t.Fatalf("p=%d n=%d rank %d %s[%d]: %v in place, %v returning", p, n, r, name, i, g[i], w[i])
						}
					}
				}
			}
		}
	}
}
