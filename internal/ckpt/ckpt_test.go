package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/tensor"
)

func testParams(t testing.TB, seed int64) []*gnn.Param {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"layer0/W", "layer0/a", "layer1/W"}
	ps := make([]*gnn.Param, len(names))
	for i, name := range names {
		ps[i] = &gnn.Param{
			Name:  name,
			Value: tensor.RandN(4, 3, 1, rng),
			Grad:  tensor.NewDense(4, 3),
		}
	}
	return ps
}

func step(ps []*gnn.Param, opt gnn.Optimizer, rng *rand.Rand) {
	for _, p := range ps {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
	opt.Step(ps)
}

func TestCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	ps := testParams(t, 400)
	opt := gnn.NewAdam(0.01)
	rng := rand.New(rand.NewSource(401))
	for i := 0; i < 3; i++ {
		step(ps, opt, rng)
	}
	st := State{Epoch: 7, Seed: 400, Opt: opt.ExportState(ps)}
	path, err := Save(dir, st, ps)
	if err != nil {
		t.Fatal(err)
	}
	if path != Path(dir, 7) {
		t.Fatalf("Save returned %q, want %q", path, Path(dir, 7))
	}

	fresh := testParams(t, 999) // different values, same inventory
	got, err := Load(path, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || got.Seed != 400 {
		t.Fatalf("loaded state %+v", got)
	}
	for i := range ps {
		for j := range ps[i].Value.Data {
			if fresh[i].Value.Data[j] != ps[i].Value.Data[j] {
				t.Fatalf("param %d word %d: %v vs %v", i, j, fresh[i].Value.Data[j], ps[i].Value.Data[j])
			}
		}
	}

	// The optimizer state must resume bitwise: lockstep continuation.
	resumed := gnn.NewAdam(0.01)
	if err := resumed.ImportState(fresh, got.Opt); err != nil {
		t.Fatal(err)
	}
	rngA := rand.New(rand.NewSource(402))
	rngB := rand.New(rand.NewSource(402))
	for i := 0; i < 3; i++ {
		step(ps, opt, rngA)
		step(fresh, resumed, rngB)
	}
	for i := range ps {
		for j := range ps[i].Value.Data {
			if fresh[i].Value.Data[j] != ps[i].Value.Data[j] {
				t.Fatalf("post-resume divergence at param %d word %d", i, j)
			}
		}
	}
}

func TestCheckpointNilOptimizerState(t *testing.T) {
	dir := t.TempDir()
	ps := testParams(t, 410)
	path, err := Save(dir, State{Epoch: 0, Seed: 410}, ps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, testParams(t, 411))
	if err != nil {
		t.Fatal(err)
	}
	if got.Opt != nil {
		t.Fatalf("expected nil optimizer state, got %+v", got.Opt)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	ps := testParams(t, 420)
	opt := gnn.NewSGD(0.1, 0.9)
	step(ps, opt, rand.New(rand.NewSource(421)))
	path, err := Save(dir, State{Epoch: 3, Seed: 420, Opt: opt.ExportState(ps)}, ps)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bit flips anywhere must be rejected, and params must stay untouched.
	for _, pos := range []int{0, 10, len(raw) / 2, len(raw) - 6, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x10
		badPath := filepath.Join(dir, "bad.agnn")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		target := testParams(t, 422)
		before := append([]float64(nil), target[0].Value.Data...)
		if _, err := Load(badPath, target); err == nil {
			t.Errorf("bit flip at byte %d accepted", pos)
		}
		for j, v := range before {
			if target[0].Value.Data[j] != v {
				t.Fatalf("failed load mutated model params (flip at %d)", pos)
			}
		}
	}
	// Truncations must be rejected.
	for _, cut := range []int{4, len(raw) / 3, len(raw) - 2} {
		badPath := filepath.Join(dir, "trunc.agnn")
		if err := os.WriteFile(badPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(badPath, testParams(t, 423)); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestLatest(t *testing.T) {
	dir := t.TempDir()
	// Empty / missing directories are cold starts, not errors.
	if _, _, ok, err := Latest(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	if _, _, ok, err := Latest(filepath.Join(dir, "nope")); err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
	ps := testParams(t, 430)
	for _, ep := range []int64{2, 9, 5} {
		if _, err := Save(dir, State{Epoch: ep, Seed: 430}, ps); err != nil {
			t.Fatal(err)
		}
	}
	// Stray files must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	path, ep, ok, err := Latest(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if ep != 9 || !strings.HasSuffix(path, "ckpt-00000009.agnn") {
		t.Fatalf("Latest = %q epoch %d", path, ep)
	}
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	ps := testParams(t, 440)
	if _, err := Save(dir, State{Epoch: 1, Seed: 440}, ps); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind", e.Name())
		}
	}
}

// TestParentMultiHeadCheckpointLoads: a checkpoint the parent commit wrote
// for a 2-head GAT model (three Adam steps; see gnn.parentTwoHead, whose
// fixture this mirrors) restores into today's one-DAG multi-head layers —
// same parameter inventory, same optimizer slots — and the model computes
// the parent's output bit for bit.
func TestParentMultiHeadCheckpointLoads(t *testing.T) {
	m, err := gnn.New(gnn.Config{Model: gnn.GAT, Layers: 2, InDim: 3, HiddenDim: 2, OutDim: 2, Heads: 2,
		Activation: gnn.Tanh(), SelfLoops: true, Seed: 2102}, graph.ErdosRenyi(16, 48, 2101))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Load(filepath.Join("testdata", "parent_2head.agnn"), m.Params())
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 3 || st.Seed != 2102 {
		t.Fatalf("state = %+v", st)
	}
	if err := gnn.NewAdam(0.05).ImportState(m.Params(), st.Opt); err != nil {
		t.Fatalf("optimizer state does not fit the parameters: %v", err)
	}
	out := m.Forward(tensor.RandN(16, 3, 1, rand.New(rand.NewSource(2103))), false)
	sum := fnv.New64a()
	for _, v := range out.Data {
		sum.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	if got := sum.Sum64(); got != 0xae9e83f8eeda3693 {
		t.Fatalf("output hash %#x after loading the parent's checkpoint, the parent computed 0xae9e83f8eeda3693", got)
	}
}

// FuzzRead: a checkpoint is bytes from a disk. Whatever they are, read
// returns — an error, or the state of a file that verifies — without a
// panic, without sizing an allocation from an unverified header field, and
// without touching the parameters unless the whole file verified. Seeds:
// checkpoints as Save writes them (Adam, SGD and no optimizer state), the
// parent-commit fixture, and truncations.
func FuzzRead(f *testing.F) {
	for i, opt := range []gnn.Optimizer{gnn.NewAdam(0.01), gnn.NewSGD(0.1, 0.9), nil} {
		ps := testParams(f, 430)
		st := State{Epoch: int64(i), Seed: 430, World: 4}
		if opt != nil {
			step(ps, opt, rand.New(rand.NewSource(431)))
			st.Opt = opt.(gnn.StatefulOptimizer).ExportState(ps)
		}
		var buf bytes.Buffer
		if err := write(&buf, st, ps); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/3])
	}
	if raw, err := os.ReadFile(filepath.Join("testdata", "parent_2head.agnn")); err == nil {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ps := testParams(t, 432)
		before := append([]float64(nil), ps[0].Value.Data...)
		if _, err := read(bytes.NewReader(raw), ps); err != nil {
			for i, v := range before {
				if ps[0].Value.Data[i] != v {
					t.Fatal("a rejected checkpoint mutated the parameters")
				}
			}
		}
	})
}
