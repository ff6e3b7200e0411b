package gnn

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"agnn/internal/graph"
	"agnn/internal/tensor"
)

func trainedModel(t *testing.T, kind Kind, seed int64) (*Model, *tensor.Dense) {
	t.Helper()
	a := testGraph(15, 999) // same graph for every model; only weights vary
	m, err := New(Config{Model: kind, Layers: 2, InDim: 4, HiddenDim: 5, OutDim: 3,
		Activation: Tanh(), SelfLoops: true, Seed: seed}, a)
	if err != nil {
		t.Fatal(err)
	}
	h := tensor.RandN(15, 4, 1, rand.New(rand.NewSource(seed+1)))
	labels := make([]int, 15)
	for i := range labels {
		labels[i] = i % 3
	}
	if _, err := m.Train(h, &CrossEntropyLoss{Labels: labels}, NewAdam(0.01), 3); err != nil {
		t.Fatal(err)
	}
	return m, h
}

func TestWeightsRoundtrip(t *testing.T) {
	for _, kind := range []Kind{VA, AGNN, GAT, GCN} {
		src, h := trainedModel(t, kind, 200)
		var buf bytes.Buffer
		if err := SaveWeights(&buf, src); err != nil {
			t.Fatal(err)
		}
		// Fresh model with different (default) weights.
		dst, _ := trainedModel(t, kind, 201)
		if dst.Forward(h, false).ApproxEqual(src.Forward(h, false), 1e-12) {
			t.Fatal("test premise broken: fresh model already matches")
		}
		if err := LoadWeights(&buf, dst); err != nil {
			t.Fatal(err)
		}
		if !dst.Forward(h, false).ApproxEqual(src.Forward(h, false), 0) {
			t.Fatalf("%v: loaded model output differs", kind)
		}
	}
}

func TestWeightsFileRoundtrip(t *testing.T) {
	src, h := trainedModel(t, GAT, 202)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := SaveWeightsFile(path, src); err != nil {
		t.Fatal(err)
	}
	dst, _ := trainedModel(t, GAT, 203)
	if err := LoadWeightsFile(path, dst); err != nil {
		t.Fatal(err)
	}
	if !dst.Forward(h, false).ApproxEqual(src.Forward(h, false), 0) {
		t.Fatal("file roundtrip output differs")
	}
	if err := LoadWeightsFile(filepath.Join(t.TempDir(), "missing"), dst); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadWeightsValidation(t *testing.T) {
	src, _ := trainedModel(t, GAT, 204)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Wrong magic.
	bad := append([]byte("WRONGMAG"), raw[8:]...)
	if err := LoadWeights(bytes.NewReader(bad), src); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Parameter-count mismatch: load a GAT checkpoint into a GCN model.
	other, _ := trainedModel(t, GCN, 205)
	if err := LoadWeights(bytes.NewReader(raw), other); err == nil {
		t.Fatal("parameter-count mismatch accepted")
	}
	// Shape mismatch: a same-model-kind network with different dims.
	a := testGraph(15, 999)
	wrongDims, err := New(Config{Model: GAT, Layers: 2, InDim: 4, HiddenDim: 7,
		OutDim: 3, Seed: 206}, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(bytes.NewReader(raw), wrongDims); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	// Truncated stream.
	if err := LoadWeights(bytes.NewReader(raw[:len(raw)/2]), src); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestLoadWeightsRejectsCorruptCRC(t *testing.T) {
	src, _ := trainedModel(t, VA, 210)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if got := string(raw[:8]); got != weightsMagicV2 {
		t.Fatalf("save wrote magic %q, want %q", got, weightsMagicV2)
	}

	// A single flipped bit anywhere in the body must be caught.
	for _, pos := range []int{8, len(raw) / 2, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x40
		if err := LoadWeights(bytes.NewReader(bad), src); err == nil {
			t.Errorf("bit flip at byte %d accepted", pos)
		}
	}
	// A corrupted trailer must be caught too.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0xff
	if err := LoadWeights(bytes.NewReader(bad), src); err == nil {
		t.Error("corrupt checksum trailer accepted")
	}
	// Truncation that removes only the trailer must be caught.
	if err := LoadWeights(bytes.NewReader(raw[:len(raw)-2]), src); err == nil {
		t.Error("missing checksum trailer accepted")
	}
	// The pristine file still loads.
	if err := LoadWeights(bytes.NewReader(raw), src); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

func TestLoadWeightsAcceptsLegacyV1(t *testing.T) {
	src, h := trainedModel(t, GCN, 211)
	// Synthesize a v1 file: v1 magic + body, no checksum.
	var body bytes.Buffer
	if _, err := body.WriteString(weightsMagicV1); err != nil {
		t.Fatal(err)
	}
	if err := writeParamsBody(&body, src.Params(), tensor.F64); err != nil {
		t.Fatal(err)
	}
	dst, _ := trainedModel(t, GCN, 212)
	if err := LoadWeights(bytes.NewReader(body.Bytes()), dst); err != nil {
		t.Fatalf("legacy v1 checkpoint rejected: %v", err)
	}
	if !dst.Forward(h, false).ApproxEqual(src.Forward(h, false), 0) {
		t.Fatal("v1 load output differs")
	}
}

func TestCheckpointPortableToLocalEngine(t *testing.T) {
	// A checkpoint saved from the global model must load into the local
	// mirror (same parameter inventory) — done through the shared format.
	src, h := trainedModel(t, AGNN, 207)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst, _ := trainedModel(t, AGNN, 208)
	if err := LoadWeights(&buf, dst); err != nil {
		t.Fatal(err)
	}
	if !dst.Forward(h, false).ApproxEqual(src.Forward(h, false), 0) {
		t.Fatal("checkpoint not portable")
	}
}

// parentTwoHead is the 2-head GAT model whose weights file and checkpoint
// (testdata/parent_2head.wts, internal/ckpt/testdata/parent_2head.agnn) were
// written after three Adam steps by the commit before multi-head layers
// became one DAG — when a layer was K separate GATLayers — together with the
// FNV-64a hash of its inference output's float64 bits on parentTwoHeadInput.
func parentTwoHead(t *testing.T) (*Model, *tensor.Dense) {
	t.Helper()
	m, err := New(Config{Model: GAT, Layers: 2, InDim: 3, HiddenDim: 2, OutDim: 2, Heads: 2,
		Activation: Tanh(), SelfLoops: true, Seed: 2102}, graph.ErdosRenyi(16, 48, 2101))
	if err != nil {
		t.Fatal(err)
	}
	return m, tensor.RandN(16, 3, 1, rand.New(rand.NewSource(2103)))
}

const parentTwoHeadOutputHash = 0xae9e83f8eeda3693

func hashBits(d *tensor.Dense) uint64 {
	h := fnv.New64a()
	for _, v := range d.Data {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return h.Sum64()
}

// TestParentMultiHeadWeightsLoad: parameter order and names of a multi-head
// layer are what they were, so the parent's weights file loads unchanged and
// the model computes the parent's output bit for bit.
func TestParentMultiHeadWeightsLoad(t *testing.T) {
	m, h := parentTwoHead(t)
	if err := LoadWeightsFile(filepath.Join("testdata", "parent_2head.wts"), m); err != nil {
		t.Fatal(err)
	}
	if got := hashBits(m.Forward(h, false)); got != parentTwoHeadOutputHash {
		t.Fatalf("output hash %#x after loading the parent's weights, the parent computed %#x", got, uint64(parentTwoHeadOutputHash))
	}
}

// FuzzLoadWeights: a weights file is bytes from a disk. Whatever they are,
// at either dtype the loader returns — an error, or nil for a file that
// verifies — and never panics or sizes an allocation from a header field
// (buffers are the model's shapes; a name is capped at 64 KiB). Seeds: the
// three format versions as the round-trip tests write them.
func FuzzLoadWeights(f *testing.F) {
	params := func() []*Param {
		rng := rand.New(rand.NewSource(230))
		return []*Param{NewParam("W", tensor.RandN(3, 2, 1, rng)), NewScalarParam("beta", 0.5)}
	}
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} { // v2, v3
		var buf bytes.Buffer
		if err := SaveParamsDType(&buf, params(), dt); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	v1 := bytes.NewBufferString(weightsMagicV1)
	if err := writeParamsBody(v1, params(), tensor.F64); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add([]byte(weightsMagicV3 + "\x07"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			_ = LoadParamsDType(bytes.NewReader(raw), params(), dt)
		}
	})
}
