package fuse

import (
	"math"
	"testing"
)

func TestPackWords32RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 33} {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32(math.Sin(float64(i)*1.3) * math.Pow(10, float64(i%7-3)))
		}
		words := make([]float64, (n+1)/2)
		packWords32(words, xs)
		dst := make([]float32, n)
		unpackWords32(dst, words)
		for i, v := range xs {
			if math.Float32bits(dst[i]) != math.Float32bits(v) {
				t.Fatalf("n=%d elem %d: %v round-tripped to %v", n, i, v, dst[i])
			}
		}
	}
	// NaN payloads must survive the pack bitwise (the gathered words can be
	// NaN floats when the two packed f32 halves form a NaN bit pattern).
	xs := []float32{float32(math.NaN()), 1.5, float32(math.Inf(-1))}
	words := make([]float64, 2)
	packWords32(words, xs)
	dst := make([]float32, 3)
	unpackWords32(dst, words)
	if dst[0] == dst[0] || dst[1] != 1.5 || !math.IsInf(float64(dst[2]), -1) {
		t.Fatalf("special values corrupted: %v", dst)
	}
}

// wordGrid is a grid whose broadcast records the words it is handed and
// leaves them as they are.
type wordGrid struct{ got []float64 }

func (*wordGrid) Diag() bool                    { return true }
func (*wordGrid) Along(Axis) (int, int)         { return 0, 1 }
func (g *wordGrid) Bcast(_ Axis, buf []float64) { g.got = append(g.got[:0], buf...) }
func (*wordGrid) ReduceToDiag(Axis, []float64)  {}
func (*wordGrid) AllreduceRow([]float64, bool)  {}

// TestWireF32PacksPerOwner: a float32 broadcast crosses as half the words,
// each owner's slice of an odd length on words of its own — so a gather's
// chunks stay whole — and comes back bit for bit.
func TestWireF32PacksPerOwner(t *testing.T) {
	const parts, per, half = 3, 5, (5 + 1) / 2
	g := &wordGrid{}
	w := &wire[float32]{grid: g, words: make([]float64, parts*per)}
	buf := make([]float32, parts*per)
	for i := range buf {
		buf[i] = float32(i) + 0.25
	}
	want := append([]float32(nil), buf...)
	w.bcast(AlongCol, buf, parts)
	if len(g.got) != parts*half {
		t.Fatalf("%d float32 values in %d slices crossed as %d words, want %d", len(buf), parts, len(g.got), parts*half)
	}
	for q := range parts {
		var first [1]float32
		unpackWords32(first[:], g.got[q*half:q*half+1])
		if first[0] != want[q*per] {
			t.Errorf("slice %d starts at word %d with %v, want %v", q, q*half, first[0], want[q*per])
		}
	}
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("value %d came back as %v, want %v", i, buf[i], want[i])
		}
	}
}
