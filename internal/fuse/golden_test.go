package fuse_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"go/format"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite golden_hashes_test.go from the bits this build produces")

var reluAct = fuse.Act{Name: "relu", F: func(x float64) float64 { return math.Max(0, x) },
	DF: func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return 0
	}}

var identityAct = fuse.Act{Name: "identity", F: func(x float64) float64 { return x },
	DF: func(float64) float64 { return 1 }}

func buildGCN(a *sparse.CSR, w fuse.ParamRef, k int, act fuse.Act) *fuse.Graph {
	g := fuse.NewGraph("gcn", a)
	h := g.InputDense("H", a.Rows, k)
	wn := g.ParamNode("W", w)
	g.SetOutput(g.Sigma("Hout", g.SpMM("Z", g.Adj(), g.MM("HW", h, wn)), act))
	return g
}

// goldenModels are the layer DAGs whose executed bits are pinned. Each
// builder draws its parameters from rng in a fixed order and returns them
// in that order, so every configuration of one model sees the same values.
var goldenModels = []struct {
	name  string
	build func(a *sparse.CSR, rng *rand.Rand, k int) (*fuse.Graph, []fuse.ParamRef)
}{
	{"va", func(a *sparse.CSR, rng *rand.Rand, k int) (*fuse.Graph, []fuse.ParamRef) {
		w := randParam(rng, "W", k, k)
		return buildVA(a, w, k), []fuse.ParamRef{w}
	}},
	{"agnn", func(a *sparse.CSR, rng *rand.Rand, k int) (*fuse.Graph, []fuse.ParamRef) {
		w, beta := randParam(rng, "W", k, k), randParam(rng, "beta", 1, 1)
		return buildAGNN(a, w, beta, k), []fuse.ParamRef{w, beta}
	}},
	{"gat", func(a *sparse.CSR, rng *rand.Rand, k int) (*fuse.Graph, []fuse.ParamRef) {
		w, a1, a2 := randParam(rng, "W", k, k), randParam(rng, "a1", k, 1), randParam(rng, "a2", k, 1)
		return buildGAT(a, w, a1, a2, k, 0.2), []fuse.ParamRef{w, a1, a2}
	}},
	{"gcn", func(a *sparse.CSR, rng *rand.Rand, k int) (*fuse.Graph, []fuse.ParamRef) {
		w := randParam(rng, "W", k, k)
		return buildGCN(a, w, k, reluAct), []fuse.ParamRef{w}
	}},
	{"gcn-id", func(a *sparse.CSR, rng *rand.Rand, k int) (*fuse.Graph, []fuse.ParamRef) {
		w := randParam(rng, "W", k, k)
		return buildGCN(a, w, k, identityAct), []fuse.ParamRef{w}
	}},
}

func hashDense(h io.Writer, m *tensor.Dense) {
	var b [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// goldenBits executes every model × dtype × mode × fusion configuration at
// the current worker count and returns the FNV-64a hash of the bits each one
// produced: the forward output and, for training plans, the input cotangent
// and every parameter Grad. Two steps run before hashing so the per-step
// re-zeroing of cotangents and the += accumulation into Grad are covered.
func goldenBits() map[string]uint64 {
	// 400 rows: above par's 256-row inline threshold, so three workers
	// really split every sweep and the per-worker partial folds take part.
	const n, m, k = 400, 2400, 6
	out := make(map[string]uint64)
	for mi, model := range goldenModels {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, train := range []bool{true, false} {
				for _, noFuse := range []bool{false, true} {
					seed := int64(1000 + mi)
					a := weightedGraph(n, m, seed)
					rng := rand.New(rand.NewSource(seed))
					g, params := model.build(a, rng, k)
					h := randDense(rng, a.Rows, k)
					gOut := randDense(rng, a.Rows, k)

					p := g.MustCompile(fuse.Options{Train: train, DType: dt, NoAttnFuse: noFuse})
					sum := fnv.New64a()
					for step := 0; step < 2; step++ {
						o := p.Forward(h)
						var gin *tensor.Dense
						if train {
							gin = p.Backward(gOut)
						}
						if step == 1 {
							hashDense(sum, o)
							if train {
								hashDense(sum, gin)
								for _, pr := range params {
									hashDense(sum, pr.Grad)
								}
							}
						}
					}
					mode, fusion := "infer", "fused"
					if train {
						mode = "train"
					}
					if noFuse {
						fusion = "unfused"
					}
					key := fmt.Sprintf("%s/%s/%s/%s/w%d", model.name, dt, mode, fusion, par.Workers())
					out[key] = sum.Sum64()
				}
			}
		}
	}
	return out
}

// TestGoldenBits pins the executed bits of the one generic op/plan stack to
// the values the two hand-written width-specific stacks produced before they
// were merged (hashes recorded by running this file against that commit with
// -update). amd64 only: arm64 contracts a·b+c into fused multiply-adds, so
// its bits legitimately differ.
func TestGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes were recorded on amd64; %s may contract FMAs", runtime.GOARCH)
	}
	old := par.Workers()
	defer par.SetWorkers(old)

	got := make(map[string]uint64)
	for _, w := range []int{1, 3} {
		par.SetWorkers(w)
		for k, v := range goldenBits() {
			got[k] = v
		}
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteString("// Code generated by go test ./internal/fuse -run TestGoldenBits -update; DO NOT EDIT.\n\n")
		sb.WriteString("package fuse_test\n\nvar goldenHashes = map[string]uint64{\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "\t%q: %#016x,\n", k, got[k])
		}
		sb.WriteString("}\n")
		src, err := format.Source([]byte(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden_hashes_test.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d hashes to golden_hashes_test.go", len(got))
		return
	}

	if len(got) != len(goldenHashes) {
		t.Errorf("produced %d configurations, golden table has %d", len(got), len(goldenHashes))
	}
	for k, want := range goldenHashes {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: configuration no longer produced", k)
		} else if g != want {
			t.Errorf("%s: bits hash to %#016x, golden %#016x", k, g, want)
		}
	}
}
