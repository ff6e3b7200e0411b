package fuse_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/par"
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

// offDiagGrid is an off-diagonal rank of a 2×2 grid whose collectives do
// nothing: enough to compile the rank's plan.
type offDiagGrid struct{}

func (offDiagGrid) Diag() bool                        { return false }
func (offDiagGrid) Along(ax fuse.Axis) (int, int)     { return 1 - int(ax), 2 }
func (offDiagGrid) Bcast(fuse.Axis, []float64)        {}
func (offDiagGrid) ReduceToDiag(fuse.Axis, []float64) {}
func (offDiagGrid) AllreduceRow([]float64, bool)      {}

// slabBytes returns the bytes of a step's slab — the end of its last
// placed buffer, in float64 words — and the most bytes live at any one
// position, an overlaid pair counted once: as its copy where both are live.
func slabBytes(bufs []fuse.Buffer) (slab, live int64) {
	last := 0
	for _, b := range bufs {
		if b.Off >= 0 {
			slab = max(slab, 8*int64(b.Off+b.Words()))
		}
		last = max(last, b.Last)
	}
	for i := 0; i <= last; i++ {
		var at int64
		for _, b := range bufs {
			if b.First <= i && i <= b.Last && !slices.ContainsFunc(bufs, func(o fuse.Buffer) bool {
				return inside(b, o) && o.First <= i && i <= o.Last
			}) {
				at += b.Bytes
			}
		}
		live = max(live, at)
	}
	return slab, live
}

// inside reports whether b is overlaid on o as a step may place a pair:
// named by b, on o's first words, no longer than o, and read last at o's
// first position. Either o is b's float64 copy, in b's plan, and that
// position is the widen; or b is the input cotangent Ḣ a plan hands the plan
// before it, and o the cotangent Z̄ that plan's σ VJP writes over Ḣ as it
// reads it.
func inside(b, o fuse.Buffer) bool {
	pair := b.Inside != "" && b.Inside == o.Name && b.InsideAt == o.Index &&
		b.Off == o.Off && b.Words() <= o.Words() && b.Last == o.First
	return pair && (b.Index == o.Index || b.Hands == "gin" && o.Index == b.Index-1)
}

// checkLayout asserts a step's layout invariants: no two buffers live at one
// position share a word of the slab but an overlaid pair (inside: a float64
// copy over its source, or σ's Z̄ over the Ḣ it is computed from); each
// buffer lives from the first position touching it (an accumulated one
// cleared in its plan's seed sweep: from the seed) to the last; what the step
// hands its caller — the last plan's results, the first plan's input
// cotangent — lives to the end of its plan's part; a result or an input
// cotangent one plan hands another lives to the last position the reader
// touches it; and the plans' statistics count the slab.
func checkLayout(t *testing.T, what string, p *fuse.Plan) {
	t.Helper()
	bufs := fuse.Buffers(p)
	if len(bufs) == 0 {
		t.Errorf("%s: no planned buffers recorded (compiled before KeepBuffers?)", what)
	}
	// reader returns the last position at which plan k reads what the plan
	// before or after it hands it: its in ports, or its output cotangent.
	reader := func(k int, port string) int {
		last := -1
		for _, o := range bufs {
			if o.Index == k && strings.HasSuffix(o.Name, port) && (port == ".grad.in" || !strings.HasSuffix(o.Name, ".grad.in")) {
				last = max(last, o.Touch[1])
			}
		}
		return last
	}
	plans := len(fuse.StepPlans(p))
	for i, b := range bufs {
		if b.First != b.Touch[0] && !(b.First == b.Seed && b.Seed < b.Touch[0]) {
			t.Errorf("%s: %s.%s is live from %d, first touched at %d (its plan's seed: %d)", what, b.Plan, b.Name, b.First, b.Touch[0], b.Seed)
		}
		last, handoff := b.Touch[1], -1
		switch {
		case b.Hands == "out" && b.Index == plans-1, b.Hands == "gin" && b.Index == 0:
			last = b.End
		case b.Hands == "out":
			handoff = max(last, reader(b.Index+1, ".in"))
		case b.Hands == "gin":
			handoff = max(last, reader(b.Index-1, ".grad.in"))
		}
		if b.Last != last && b.Last != handoff {
			t.Errorf("%s: %s.%s (plan %d of %d, hands %q) is live until %d; last touched at %d, its plan ends at %d, a hand-off's reader at %d",
				what, b.Plan, b.Name, b.Index, plans, b.Hands, b.Last, b.Touch[1], b.End, handoff)
		}
		if b.Inside != "" && !slices.ContainsFunc(bufs, func(o fuse.Buffer) bool { return inside(b, o) }) {
			t.Errorf("%s: %s.%s [%d, %d] at %d is overlaid on %s, which it is not on the first words of, or read after", what, b.Plan, b.Name, b.First, b.Last, b.Off, b.Inside)
		}
		for _, o := range bufs[i+1:] {
			if inside(b, o) || inside(o, b) {
				continue
			}
			if b.Shares(o) && o.First <= b.Last && b.First <= o.Last {
				t.Errorf("%s: %s.%s [%d, %d] and %s.%s [%d, %d] share words from %d and %d", what, b.Plan, b.Name, b.First, b.Last, o.Plan, o.Name, o.First, o.Last, b.Off, o.Off)
			}
		}
	}
	var held int64
	for _, q := range fuse.StepPlans(p) {
		held += q.Stats().WorkspaceBytes()
	}
	if slab, _ := slabBytes(bufs); held < slab {
		t.Errorf("%s: PlanStats count %d B, the slab alone holds %d", what, held, slab)
	}
}

// TestWorkspaceSlotsDisjoint runs the golden-test matrix — VA, AGNN, GAT,
// GCN, GIN, 2- and 3-head GAT, each at both widths, training and inference,
// fused and NoAttnFuse, and GAT and VA on a 1×1 grid — and checks each plan's
// workspace layout (checkLayout: no two buffers live at one position over
// one word of the slab, each buffer live from its first to its last touch but
// what the step hands on) and each head's ρ live at its fused VJP alone. It
// then compiles every plan again with poisoned storage, words of its own for
// every buffer and NaN in each buffer wherever the step is outside its
// interval, and requires the same bits over two steps: an op touching a
// buffer where its interval says it is dead would read NaN. The same holds
// for whole models, whose layers' plans are one step: a two-layer float64 GAT
// training and inferring, three float32 AGNN layers, a two-head GAT, a GAT on
// a 1×1 grid and two models with a dropout layer between their first two
// layers; a float64 training step linking its layers places the first
// layer's Z̄ over the Ḣ the second hands it, and the poisoned run, which
// fills Ḣ's words only where neither is live, keeps the bits. A model's
// second Backward without a Forward panics. Finally the
// slab of an off-diagonal grid rank's GAT plan and of the infer-hub-shaped
// model step are the most bytes each has live at once, and the
// train-flat-shaped step's slab and most bytes live at once are pinned.
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
					checkLayout(t, what, p)
					// Each head's ρ lives inside its own fused VJP, at one
					// position no other head's shares.
					at := map[int]int{}
					for _, b := range fuse.Buffers(p) {
						if strings.HasSuffix(b.Name, ".rho") {
							if b.First != b.Last {
								t.Errorf("%s: %s lives over [%d, %d], want one position", what, b.Name, b.First, b.Last)
							}
							if at[b.First]++; at[b.First] > 1 {
								t.Errorf("%s: two heads' ρ live at position %d", what, b.First)
							}
						}
					}
					poisoned, got := run(true)
					pb := fuse.Buffers(poisoned)
					for i, b := range pb {
						for _, o := range pb[i+1:] {
							if b.Shares(o) && !inside(b, o) && !inside(o, b) {
								t.Errorf("%s: the poisoned plan places %s and %s over one word", what, b.Name, o.Name)
							}
						}
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
		fuse.LayOut(p)
		checkLayout(t, "off-diagonal gat", p)
		if slab, live := slabBytes(fuse.Buffers(p)); slab != live {
			t.Errorf("off-diagonal gat: the slab holds %d B, the most live at once is %d", slab, live)
		}
		// At float32 the buffers halve and the collectives stage through
		// float64 words as wide as the widest dense node, not the block.
		p32 := gridGAT(a, offDiagGrid{}, w, a1, a2, k).MustCompile(fuse.Options{Train: true, DType: tensor.F32})
		fuse.LayOut(p32)
		if b32, b64 := p32.Stats().WorkspaceBytes(), p.Stats().WorkspaceBytes(); b32 > b64 {
			t.Errorf("off-diagonal gat: %d B at float32, %d at float64", b32, b64)
		}
	})

	t.Run("model steps", func(t *testing.T) {
		// A model's layers are one step: every buffer of every layer's plan
		// placed on one timeline, the layers handing each other their
		// results. Each model runs two steps, and again with every buffer on
		// words of its own and NaN wherever the step says it is dead: a layer
		// reading a buffer of another outside its interval — the previous
		// layer's output after the hand-off ends, say — would read NaN. A
		// dropout layer (drop ≥ 0: its rate) between the first two layers
		// makes their crossing a float64 matrix the step does not link: at
		// rate 0 the next layer reads the previous one's output itself.
		// sigma is how many σ pairs (Z̄ over the Ḣ the next layer hands in)
		// the step places: one per linked float64 hand-off of a training
		// step whose layer ends in σ; none after the heads' mean, none at
		// float32, where the seed copies Ḣ and is its last reader, and none
		// across the dropout.
		for _, c := range []struct {
			name  string
			cfg   gnn.Config
			grid  bool
			train bool
			drop  float64
			sigma int
		}{
			{"gat-f64-train", gnn.Config{Model: gnn.GAT, Layers: 2, InDim: k, HiddenDim: k, OutDim: 3, SelfLoops: true}, false, true, -1, 1},
			{"gat-f64-infer", gnn.Config{Model: gnn.GAT, Layers: 2, InDim: k, HiddenDim: k, OutDim: 3, SelfLoops: true}, false, false, -1, 0},
			{"agnn-f32-infer", gnn.Config{Model: gnn.AGNN, Layers: 3, InDim: k, HiddenDim: k, OutDim: k, DType: tensor.F32}, false, false, -1, 0},
			{"agnn-f32-train", gnn.Config{Model: gnn.AGNN, Layers: 3, InDim: k, HiddenDim: k, OutDim: k, DType: tensor.F32}, false, true, -1, 0},
			{"agnn-f64-train", gnn.Config{Model: gnn.AGNN, Layers: 3, InDim: k, HiddenDim: k, OutDim: k}, false, true, -1, 2},
			{"gat-2head-train", gnn.Config{Model: gnn.GAT, Layers: 2, Heads: 2, InDim: k, HiddenDim: k, OutDim: 3}, false, true, -1, 0},
			{"gat-grid-train", gnn.Config{Model: gnn.GAT, Layers: 2, InDim: k, HiddenDim: k, OutDim: 3}, true, true, -1, 1},
			{"gat-f64-dropout0-train", gnn.Config{Model: gnn.GAT, Layers: 2, InDim: k, HiddenDim: k, OutDim: 3}, false, true, 0, 0},
			{"agnn-f32-dropout-train", gnn.Config{Model: gnn.AGNN, Layers: 3, InDim: k, HiddenDim: k, OutDim: k, DType: tensor.F32}, false, true, 0.5, 0},
		} {
			run := func(poison bool) (*fuse.Plan, []*tensor.Dense, *gnn.Model) {
				cfg := c.cfg
				cfg.Seed = 8
				m, err := gnn.New(cfg, a)
				if c.grid {
					m, err = gnn.NewBound(cfg, a, oneRankGrid{})
				}
				if err != nil {
					t.Fatal(err)
				}
				if c.drop >= 0 {
					m.Layers = slices.Insert(m.Layers, 1, gnn.Layer(gnn.NewDropout(c.drop, 1)))
				}
				rng := rand.New(rand.NewSource(9))
				h := randDense(rng, a.Rows, k)
				restore := func() {}
				if poison {
					restore = fuse.PoisonDead()
				}
				var got []*tensor.Dense
				for step := 0; step < 2; step++ {
					m.ZeroGrad()
					out := m.Forward(h, c.train)
					restore() // the first Forward compiled the plans
					got = []*tensor.Dense{out.Clone()}
					if c.train {
						got = append(got, m.Backward(randDense(rand.New(rand.NewSource(10)), out.Rows, out.Cols)).Clone())
					}
				}
				for _, pr := range m.Params() {
					got = append(got, pr.Grad.Clone())
				}
				train, infer := m.Layers[0].(layerPlans).Plans()
				if c.train {
					return train, got, m
				}
				return infer, got, m
			}
			p, want, m := run(false)
			if n := len(fuse.StepPlans(p)); n != 2 && n != 3 {
				t.Errorf("%s: the step runs %d plans, want every layer's", c.name, n)
			}
			checkLayout(t, c.name, p)
			sigma := 0
			for _, b := range fuse.Buffers(p) {
				if b.Hands == "gin" && b.Inside != "" && b.InsideAt == b.Index-1 {
					sigma++
				}
			}
			if sigma != c.sigma {
				t.Errorf("%s: the step places %d σ pairs, want %d", c.name, sigma, c.sigma)
			}
			poisoned, got, pm := run(true)
			pb := fuse.Buffers(poisoned)
			for i, b := range pb {
				for _, o := range pb[i+1:] {
					if b.Shares(o) && !inside(b, o) && !inside(o, b) {
						t.Errorf("%s: the poisoned step places %s.%s and %s.%s over one word", c.name, b.Plan, b.Name, o.Plan, o.Name)
					}
				}
			}
			for i := range want {
				if j := firstBitDiff(want[i].Data, got[i].Data); j >= 0 {
					t.Errorf("%s: matrix %d differs under poisoned dead buffers at %d: %v, poisoned %v", c.name, i, j, want[i].Data[j], got[i].Data[j])
				}
			}
			m.ReleasePlans()
			pm.ReleasePlans()
		}
	})

	t.Run("backward twice", func(t *testing.T) {
		// A forward value dies at the last backward op reading it, so a
		// second Backward without a Forward in between would read dead
		// words: a model's panics.
		rng := rand.New(rand.NewSource(11))
		m, err := gnn.New(gnn.Config{Model: gnn.GAT, Layers: 2, InDim: k, HiddenDim: k, OutDim: 3, Seed: 8}, a)
		if err != nil {
			t.Fatal(err)
		}
		defer m.ReleasePlans()
		out := m.Forward(randDense(rng, a.Rows, k), true)
		g := randDense(rng, out.Rows, out.Cols)
		m.Backward(g)
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Backward before Forward") {
				t.Errorf("a model's second Backward recovered %v, want the Backward before Forward panic", r)
			}
		}()
		m.Backward(g)
	})

	// The two shapes the benchmark's workloads step, scaled down: each
	// step's slab and the most bytes it has live at one position, pinned.
	t.Run("train-flat shape", func(t *testing.T) {
		// A two-layer GAT as train-flat builds it (k → k → classes, about 28
		// entries a row), one training step. Layer 0's output Z dies at its σ
		// VJP, the last to read it, so it is not live at layer 0's fused VJP;
		// there its Z̄ lies over the H̄ layer 1 hands it, and the fused VJPs
		// keep n words of ρ, no nnz buffer. The most bytes live at once are
		// at layer 1's weight VJP: layer 0's forward values its backward
		// reads (Hp, Z — layer 1's input, in place — u, v, the row
		// statistics) beside layer 1's H̄, H̄p and Z, its output. The slab
		// holds exactly that.
		const k, classes = 32, 8
		g := graph.ErdosRenyi(1024, 14000, 3)
		m, err := gnn.New(gnn.Config{Model: gnn.GAT, Layers: 2, InDim: k, HiddenDim: k, OutDim: classes, SelfLoops: true, Seed: 4}, g)
		if err != nil {
			t.Fatal(err)
		}
		defer m.ReleasePlans()
		h := tensor.RandN(g.Rows, k, 1, rand.New(rand.NewSource(6)))
		out := m.Forward(h, true)
		m.Backward(tensor.RandN(out.Rows, out.Cols, 1, rand.New(rand.NewSource(7))))
		p := m.Layers[0].(interface{ Plan() *fuse.Plan }).Plan()
		checkLayout(t, "train-flat shape", p)
		pinStep(t, "train-flat shape", p, 950272, 950272)
	})

	t.Run("infer-hub shape", func(t *testing.T) {
		// Three float32 AGNN layers as infer-hub builds them, on a hub-heavy
		// Kronecker graph, one inference step. The last layer's output is
		// widened to float64 over its own words (the widen is its last
		// reader), so the last position holds n·k float64 words and nothing
		// else. The most bytes live at once are n·k·8 + 4n: an aggregation's
		// operand and its result, n·k float32 words each, and the row norms'
		// n. Each layer's ΨH and Z, and the first layer's narrowed input,
		// take turns in that room.
		const k = 32
		g := graph.Kronecker(10, 16, 5)
		m, err := gnn.New(gnn.Config{Model: gnn.AGNN, Layers: 3, InDim: k, HiddenDim: k, OutDim: k, Seed: 4, DType: tensor.F32}, g)
		if err != nil {
			t.Fatal(err)
		}
		defer m.ReleasePlans()
		m.Forward(tensor.RandN(g.Rows, k, 1, rand.New(rand.NewSource(6))), false)
		_, p := m.Layers[0].(layerPlans).Plans()
		checkLayout(t, "infer-hub shape", p)
		n := int64(g.Rows * (8*k + 4))
		pinStep(t, "infer-hub shape", p, n, n)
	})
}

// pinStep requires p's step to hold exactly slab bytes in its slab, and live
// bytes to be the most it has live at one position.
func pinStep(t *testing.T, what string, p *fuse.Plan, slab, live int64) {
	t.Helper()
	bufs := fuse.Buffers(p)
	gotSlab, gotLive := slabBytes(bufs)
	t.Logf("%s: %d B in the slab, at most %d live at once, %d B with a buffer each", what, gotSlab, gotLive, sumBytes(bufs))
	if gotSlab != slab || gotLive != live {
		t.Errorf("%s: the slab holds %d B, %d live at once; want %d and %d", what, gotSlab, gotLive, slab, live)
	}
}

// layerPlans is a gnn layer's pair of plans.
type layerPlans interface {
	Plans() (train, infer *fuse.Plan)
}

func sumBytes(bufs []fuse.Buffer) (n int64) {
	for _, b := range bufs {
		n += b.Bytes
	}
	return n
}

// TestSpreadWidensInPlace: the widen of an overlaid pair, with the float32
// source on the first words of its float64 copy, writes tensor.Cast's bits —
// at lengths around the halving rounds' and the worker pool's edges and at
// infer-hub's n·k, on 1, 2 and 3 workers — and allocates nothing once warm.
func TestSpreadWidensInPlace(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	rng := rand.New(rand.NewSource(12))
	for _, workers := range []int{1, 2, 3} {
		par.SetWorkers(workers)
		for _, n := range []int{0, 1, 2, 3, 4095, 4096, 4097, 65537, 65536 * 32} {
			src := make([]float32, n)
			for i := range src {
				src[i] = float32(rng.NormFloat64() * math.Exp(20*rng.NormFloat64()))
			}
			if n > 3 {
				src[1], src[2], src[3] = float32(math.Inf(-1)), math.SmallestNonzeroFloat32, float32(math.NaN())
			}
			want := make([]float64, n)
			tensor.Cast(want, src)
			buf := make([]float64, n)
			over := tensor.View[float32](buf, n)
			copy(over, src)
			fuse.Spread(buf, over)
			for i := range want {
				if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
					t.Fatalf("workers=%d n=%d: element %d is %v, Cast gives %v", workers, n, i, buf[i], want[i])
				}
			}
			if raceEnabled || n == 0 {
				continue
			}
			if allocs := testing.AllocsPerRun(5, func() { fuse.Spread(buf, tensor.View[float32](buf, n)) }); allocs != 0 {
				t.Errorf("workers=%d n=%d: the widen allocates %.1f objects, want 0", workers, n, allocs)
			}
		}
	}
}

// TestOverlayOnlyWhereTheWidenReadsLast: a step places a float32 result on
// the first words of its float64 copy only where the widen is the result's
// last reader. In a float32 training step the layers hand each other typed
// activations and cotangents, and σ's VJP reads the last layer's output after
// its widen: only the first layer's input cotangent is overlaid. In the
// inference step of the same model only the last layer's output is; the
// typed hand-offs between layers are not. A training plan alone overlays its
// input cotangent and widens it once per sweep: a second InputGrad returns
// the same bits. A plan that hands its cut's outs on typed beside its output
// (a serving prefix's) overlays nothing.
func TestOverlayOnlyWhereTheWidenReadsLast(t *testing.T) {
	defer fuse.KeepBuffers()()
	a := weightedGraph(300, 1800, 41)
	const k = 5
	h := randDense(rand.New(rand.NewSource(3)), a.Rows, k)
	// overlaid lists the step's overlaid buffers, each as "name in copy",
	// with whether it is read last at the step's last position.
	overlaid := func(p *fuse.Plan) (pairs []string, last bool) {
		bufs := fuse.Buffers(p)
		end := 0
		for _, b := range bufs {
			end = max(end, b.End)
		}
		last = true
		for _, b := range bufs {
			if b.Inside != "" {
				pairs = append(pairs, b.Name+" in "+b.Inside)
				last = last && b.Last == end
			}
		}
		return pairs, last
	}
	for _, train := range []bool{true, false} {
		m, err := gnn.New(gnn.Config{Model: gnn.AGNN, Layers: 3, InDim: k, HiddenDim: k, OutDim: k, Seed: 8, DType: tensor.F32}, a)
		if err != nil {
			t.Fatal(err)
		}
		out := m.Forward(h, train)
		tp, ip := m.Layers[0].(layerPlans).Plans()
		p, want := ip, "Z in Hout.f64"
		if train {
			m.Backward(out.Clone())
			p, want = tp, "H.grad in H.grad.f64"
		}
		checkLayout(t, fmt.Sprintf("agnn-f32 train=%v", train), p)
		if pairs, last := overlaid(p); len(pairs) != 1 || pairs[0] != want || !last {
			t.Errorf("agnn-f32 train=%v: overlaid %q (read last at the step's end: %v), want only %q there", train, pairs, last, want)
		}
		m.ReleasePlans()
	}

	// An overlaid pair is widened once per sweep: asking again returns the
	// same bits, not a widen of what the first wrote over its source.
	rng := rand.New(rand.NewSource(5))
	w, beta := randParam(rng, "W", k, k), randParam(rng, "beta", 1, 1)
	alone := buildAGNN(a, w, beta, k).MustCompile(fuse.Options{Train: true, DType: tensor.F32})
	defer alone.Release()
	alone.Forward(h)
	gin := alone.Backward(randDense(rng, a.Rows, k)).Clone()
	if pairs, _ := overlaid(alone); len(pairs) != 1 {
		t.Errorf("a float32 training plan alone overlays %q, want its input cotangent", pairs)
	}
	if j := firstBitDiff(gin.Data, alone.InputGrad().Data); j >= 0 {
		t.Errorf("a second InputGrad differs at %d", j)
	}

	g := fuse.NewGraph("gat", a)
	gnn.NewGATLayer(a, k, k, gnn.ReLU(), 0.2, rand.New(rand.NewSource(4))).DAG(g, g.InputDense("H", a.Rows, k))
	p := fuse.QueryPlan(g, tensor.F32)
	defer p.Release()
	p.ForwardTyped(tensor.Typed{F64: h})
	p.Output()
	if pairs, _ := overlaid(p); len(pairs) != 0 {
		t.Errorf("a plan handing its cut's outs on typed overlays %q", pairs)
	}
}
