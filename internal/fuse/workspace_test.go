package fuse_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

func buildGIN(a *sparse.CSR, w, eps fuse.ParamRef, k int) *fuse.Graph {
	g := fuse.NewGraph("gin", a)
	h := g.InputDense("H", a.Rows, k)
	pre := g.GINCombine("pre", g.SpMM("AH", g.Adj(), h), h, g.ParamNode("eps", eps))
	g.SetOutput(g.Sigma("Hout", g.MM("Z", pre, g.ParamNode("W", w)), reluAct))
	return g
}

// gridGAT and gridVA are the GAT and VA layers TestGridLoweringOnOneRank
// lowers, on grid (nil: a single node).
func gridGAT(a *sparse.CSR, grid fuse.Grid, w, a1, a2 fuse.ParamRef, k int) *fuse.Graph {
	g := fuse.NewGraph("gat", a)
	g.SetGrid(grid)
	x := g.InputDense("H", a.Rows, k)
	hp := g.MM("Hp", x, g.ParamNode("W", w))
	u := g.MatVecNode("u", hp, g.ParamNode("a1", a1))
	v := g.MatVecNode("v", hp, g.ParamNode("a2", a2))
	c := g.AddScores("C", g.RepRow("u1T", u), g.RepCol("1vT", v))
	psi := g.Softmax("Psi", g.Mask("E", g.LReLUScores("lreluC", c, 0.2), false))
	g.SetOutput(g.Sigma("Hout", g.SpMM("Z", psi, hp), tanhAct))
	return g
}

func gridVA(a *sparse.CSR, grid fuse.Grid, w fuse.ParamRef, k int) *fuse.Graph {
	g := fuse.NewGraph("va", a)
	g.SetGrid(grid)
	x := g.InputDense("H", a.Rows, k)
	psi := g.Mask("Psi", g.DotScores("HHt", x, x), true)
	g.SetOutput(g.Sigma("Hout", g.MM("Z", g.SpMM("PsiH", psi, x), g.ParamNode("W", w)), tanhAct))
	return g
}

// offDiagGrid is an off-diagonal rank of a grid whose collectives do nothing:
// enough to compile the rank's plan.
type offDiagGrid struct{}

func (offDiagGrid) Diag() bool                        { return false }
func (offDiagGrid) Bcast(fuse.Axis, []float64)        {}
func (offDiagGrid) ReduceToDiag(fuse.Axis, []float64) {}
func (offDiagGrid) AllreduceRow([]float64, bool)      {}

// slotWords returns the words of every slot of a plan's planned workspace —
// its largest occupant — and the most words live at any one position.
func slotWords(bufs []fuse.Buffer) (slots, live int64) {
	size := map[int]int64{}
	last := 0
	for _, b := range bufs {
		size[b.Slot] = max(size[b.Slot], b.Words)
		last = max(last, b.Last)
	}
	for _, w := range size {
		slots += w
	}
	for i := 0; i <= last; i++ {
		var at int64
		for _, b := range bufs {
			if b.First <= i && i <= b.Last {
				at += b.Words
			}
		}
		live = max(live, at)
	}
	return slots, live
}

// checkSlots asserts the layout's invariants: no two occupants of a slot are
// live at one position, and what the step hands its caller shares its slot
// with nothing live after it is written.
func checkSlots(t *testing.T, what string, p *fuse.Plan) {
	t.Helper()
	bufs := fuse.Buffers(p)
	if len(bufs) == 0 {
		t.Errorf("%s: no planned buffers recorded (compiled before KeepBuffers?)", what)
	}
	for i, b := range bufs {
		for _, o := range bufs[i+1:] {
			if o.Slot != b.Slot {
				continue
			}
			if o.First <= b.Last && b.First <= o.Last {
				t.Errorf("%s: %s [%d, %d] and %s [%d, %d] share slot %d", what, b.Name, b.First, b.Last, o.Name, o.First, o.Last, b.Slot)
			}
			for _, kept := range [][2]fuse.Buffer{{b, o}, {o, b}} {
				if k, mate := kept[0], kept[1]; k.Keep && mate.Last >= k.First {
					t.Errorf("%s: %s, handed to the caller from %d on, shares slot %d with %s, live until %d", what, k.Name, k.First, k.Slot, mate.Name, mate.Last)
				}
			}
		}
	}
	if slots, _ := slotWords(bufs); p.Stats().WorkspaceWords < slots {
		t.Errorf("%s: PlanStats counts %d words, the slots alone hold %d", what, p.Stats().WorkspaceWords, slots)
	}
}

// TestWorkspaceSlotsDisjoint runs the golden-test matrix — VA, AGNN, GAT,
// GCN, GIN, 2- and 3-head GAT, each at both widths, training and inference,
// fused and NoAttnFuse, and GAT and VA on a 1×1 grid — and checks each plan's
// workspace layout: disjoint occupants per slot, the output and the input
// cotangent sharing with nothing live after them, the heads' C̄ buffers in
// one slot. It then compiles every plan again with poisoned storage, a slot
// per buffer and NaN in each buffer wherever the step is outside its
// interval, and requires the same bits over two steps: an op touching a
// buffer where its interval says it is dead would read NaN. Finally the
// coloured totals of an off-diagonal grid rank's GAT plan and of a GAT layer
// shaped as train-flat's first are the most words either has live at once.
func TestWorkspaceSlotsDisjoint(t *testing.T) {
	defer fuse.KeepBuffers()()
	a := weightedGraph(300, 1800, 41)
	const k = 5
	type model struct {
		name  string
		build func(rng *rand.Rand) (*fuse.Graph, []fuse.ParamRef)
	}
	var models []model
	for _, m := range goldenModels {
		models = append(models, model{m.name, func(rng *rand.Rand) (*fuse.Graph, []fuse.ParamRef) { return m.build(a, rng, k) }})
	}
	models = append(models, model{"gin", func(rng *rand.Rand) (*fuse.Graph, []fuse.ParamRef) {
		w, eps := randParam(rng, "W", k, k), randParam(rng, "eps", 1, 1)
		return buildGIN(a, w, eps, k), []fuse.ParamRef{w, eps}
	}})
	for _, heads := range []int{2, 3} {
		models = append(models, model{fmt.Sprintf("gat-%dhead", heads), func(rng *rand.Rand) (*fuse.Graph, []fuse.ParamRef) {
			ps := paramSet{}
			var params []fuse.ParamRef
			for h := range heads {
				sfx := ""
				if h > 0 {
					sfx = fmt.Sprintf(".h%d", h)
				}
				for _, p := range []fuse.ParamRef{randParam(rng, "W"+sfx, k, k), randParam(rng, "a1"+sfx, k, 1), randParam(rng, "a2"+sfx, k, 1)} {
					ps[p.Name] = p
					params = append(params, p)
				}
			}
			return buildGATHeads(a, ps, heads, k, true), params
		}})
	}
	for _, grid := range []string{"gat", "va"} {
		models = append(models, model{"grid-" + grid, func(rng *rand.Rand) (*fuse.Graph, []fuse.ParamRef) {
			w, a1, a2 := randParam(rng, "W", k, k), randParam(rng, "a1", k, 1), randParam(rng, "a2", k, 1)
			if grid == "va" {
				return gridVA(a, oneRankGrid{}, w, k), []fuse.ParamRef{w}
			}
			return gridGAT(a, oneRankGrid{}, w, a1, a2, k), []fuse.ParamRef{w, a1, a2}
		}})
	}

	for mi, m := range models {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, train := range []bool{true, false} {
				for _, noFuse := range []bool{false, true} {
					what := fmt.Sprintf("%s/%s/train=%v/unfused=%v", m.name, dt, train, noFuse)
					// run compiles the model afresh — poisoned or not — and
					// returns the plan and the bits of its second step.
					run := func(poison bool) (*fuse.Plan, []*tensor.Dense) {
						rng := rand.New(rand.NewSource(int64(500 + mi)))
						g, params := m.build(rng)
						h, gOut := randDense(rng, a.Rows, k), randDense(rng, a.Rows, g.OutputCols())
						restore := func() {}
						if poison {
							restore = fuse.PoisonDead()
						}
						p := g.MustCompile(fuse.Options{Train: train, DType: dt, NoAttnFuse: noFuse})
						restore()
						var got []*tensor.Dense
						for step := 0; step < 2; step++ {
							got = []*tensor.Dense{p.Forward(h)}
							if train {
								got = append(got, p.Backward(gOut))
							}
						}
						for i := range got {
							got[i] = got[i].Clone()
						}
						for _, pr := range params {
							got = append(got, pr.Grad)
						}
						return p, got
					}
					p, want := run(false)
					checkSlots(t, what, p)
					// Each head's C̄ lives inside its own fused VJP: one slot
					// holds them all.
					cbar := map[int]int{}
					for _, b := range fuse.Buffers(p) {
						if strings.HasSuffix(b.Name, ".cbar") {
							cbar[b.Slot]++
						}
					}
					if len(cbar) > 1 {
						t.Errorf("%s: the heads' C̄ buffers take %d slots, want one", what, len(cbar))
					}
					poisoned, got := run(true)
					slots := map[int]bool{}
					for _, b := range fuse.Buffers(poisoned) {
						slots[b.Slot] = true
					}
					if n := len(fuse.Buffers(poisoned)); len(slots) != n {
						t.Errorf("%s: the poisoned plan puts %d buffers in %d slots", what, n, len(slots))
					}
					for i := range want {
						if j := firstBitDiff(want[i].Data, got[i].Data); j >= 0 {
							t.Errorf("%s: matrix %d differs under poisoned dead buffers at %d: %v, poisoned %v", what, i, j, want[i].Data[j], got[i].Data[j])
						}
					}
					p.Release()
					poisoned.Release()
				}
			}
		}
	}

	t.Run("off-diagonal", func(t *testing.T) {
		// Off the diagonal the aggregation's partial sum dies at the reduce
		// and its cotangent arrives by broadcast: the colouring finds room
		// for the one where the other was, and the rank's plan holds no more
		// than the most words it has live at once.
		rng := rand.New(rand.NewSource(3))
		w, a1, a2 := randParam(rng, "W", k, k), randParam(rng, "a1", k, 1), randParam(rng, "a2", k, 1)
		p := gridGAT(a, offDiagGrid{}, w, a1, a2, k).MustCompile(fuse.Options{Train: true})
		checkSlots(t, "off-diagonal gat", p)
		if slots, live := slotWords(fuse.Buffers(p)); slots != live {
			t.Errorf("off-diagonal gat: the slots hold %d words, the most live at once is %d", slots, live)
		}
		// At float32 the buffers halve and the collectives stage through
		// float64 words as wide as the widest dense node, not the block.
		p32 := gridGAT(a, offDiagGrid{}, w, a1, a2, k).MustCompile(fuse.Options{Train: true, DType: tensor.F32})
		if b32, b64 := p32.Stats().WorkspaceBytes(), p.Stats().WorkspaceBytes(); b32 > b64 {
			t.Errorf("off-diagonal gat: %d B at float32, %d at float64", b32, b64)
		}
	})

	t.Run("train-flat shape", func(t *testing.T) {
		// A two-layer GAT as train-flat builds it (k → k → classes), one
		// training step. The first layer's coloured total is the lower bound
		// of any layout: the most words live at one position (at its fused
		// VJP, where Hp, H̄p, Z, Z̄, u, v, ū, v̄, the row statistics and C̄ are
		// live; H̄ comes later, in Z̄'s slot). The second layer may sit above
		// its bound: at train-flat's size its C̄ takes the wider H̄'s slot,
		// which a slot layout cannot pack tighter.
		const k, classes = 8, 3
		m, err := gnn.New(gnn.Config{Model: gnn.GAT, Layers: 2, InDim: k, HiddenDim: k, OutDim: classes, SelfLoops: true, Seed: 4}, a)
		if err != nil {
			t.Fatal(err)
		}
		h := tensor.RandN(a.Rows, k, 1, rand.New(rand.NewSource(6)))
		out := m.Forward(h, true)
		m.Backward(tensor.RandN(out.Rows, out.Cols, 1, rand.New(rand.NewSource(7))))
		for i, l := range m.Layers {
			p := l.(interface{ Plan() *fuse.Plan }).Plan()
			checkSlots(t, fmt.Sprintf("layer %d", i), p)
			slots, live := slotWords(fuse.Buffers(p))
			t.Logf("layer %d: %d words in slots, at most %d live at once, %d words planned one per buffer", i, slots, live, sumWords(fuse.Buffers(p)))
			if i == 0 && slots != live {
				t.Errorf("layer 0: the slots hold %d words, the most live at once is %d", slots, live)
			}
		}
	})
}

func sumWords(bufs []fuse.Buffer) (n int64) {
	for _, b := range bufs {
		n += b.Words
	}
	return n
}
