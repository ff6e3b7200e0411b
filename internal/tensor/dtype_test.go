package tensor

import (
	"math/rand"
	"testing"
)

func TestDTypeSizeAndString(t *testing.T) {
	if F64.Size() != 8 || F32.Size() != 4 {
		t.Fatalf("sizes: f64=%d f32=%d", F64.Size(), F32.Size())
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Fatalf("strings: %q %q", F64, F32)
	}
	var zero DType
	if zero != F64 {
		t.Fatal("zero value must be F64 so dtype-unaware callers stay on the f64 path")
	}
}

func TestParseDType(t *testing.T) {
	for _, s := range []string{"f64", "float64", "fp64", ""} {
		if dt, err := ParseDType(s); err != nil || dt != F64 {
			t.Errorf("ParseDType(%q) = %v, %v", s, dt, err)
		}
	}
	for _, s := range []string{"f32", "float32", "fp32"} {
		if dt, err := ParseDType(s); err != nil || dt != F32 {
			t.Errorf("ParseDType(%q) = %v, %v", s, dt, err)
		}
	}
	if _, err := ParseDType("f16"); err == nil {
		t.Error("ParseDType(f16) should fail")
	}
}

func TestSetTileBudget(t *testing.T) {
	defer SetTileBudget(0)
	SetTileBudget(1 << 20)
	if got := TileBudget(); got != 1<<20 {
		t.Fatalf("TileBudget = %d after SetTileBudget(1MiB)", got)
	}
	// Non-positive restores the default.
	SetTileBudget(-1)
	if got := TileBudget(); got != 256<<10 {
		t.Fatalf("TileBudget = %d after SetTileBudget(-1), want default", got)
	}
}

func TestTileCols(t *testing.T) {
	defer SetTileBudget(0)

	// Small column counts are never split.
	if got := TileCols(1000000, 8, 8); got != 8 {
		t.Errorf("cols=8: tile %d, want 8", got)
	}
	// When the whole operand fits in the budget the kernel degenerates to
	// its untiled single-pass form.
	SetTileBudget(1 << 20)
	if got := TileCols(64, 100, 8); got != 100 {
		t.Errorf("operand fits: tile %d, want 100", got)
	}
	// Otherwise the tile is sized to the budget, rounded down to a multiple
	// of 8 and clamped below by the minimum.
	SetTileBudget(64 << 10)
	rows := 1024
	got := TileCols(rows, 256, 8)
	if got%8 != 0 || got < 8 || got > 256 {
		t.Fatalf("tile %d not a multiple of 8 within [8,256]", got)
	}
	if int64(rows)*int64(got)*8 > 64<<10 {
		t.Fatalf("tile %d overruns the 64KiB budget (%d bytes)", got, rows*got*8)
	}
	// Tiny budgets clamp to the minimum rather than degenerating to 0.
	SetTileBudget(1)
	if got := TileCols(1024, 256, 8); got != 8 {
		t.Errorf("tiny budget: tile %d, want 8", got)
	}
}

// TestMMIntoTiledBitwiseIdentical pins down the tiling contract documented
// in tile.go: splitting output columns must not change a single bit,
// because every output element still accumulates its contributions in the
// original order.
func TestMMIntoTiledBitwiseIdentical(t *testing.T) {
	defer SetTileBudget(0)
	rng := rand.New(rand.NewSource(41))
	a := RandN(37, 96, 1, rng)
	b := RandN(96, 120, 1, rng)

	SetTileBudget(0) // default: 96×120 f64 fits, single pass
	want := MM(a, b)
	SetTileBudget(1) // clamp to the minimum tile: 15 passes over B
	got := MM(a, b)

	if got.MaxAbsDiff(want) != 0 {
		t.Fatalf("tiled MM deviates from untiled by %g, want bitwise identity", got.MaxAbsDiff(want))
	}
}

// TestCastRoundTrip: Cast is the one rounding/widening conversion the plan
// boundary and the float32 weights format are built from.
func TestCastRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := RandN(7, 5, 1, rng)
	m := NewMat[float32](7, 5)
	Cast(m.Data, src.Data)
	back := NewDense(7, 5)
	Cast(back.Data, m.Data)
	for i, v := range src.Data {
		if back.Data[i] != float64(float32(v)) {
			t.Fatalf("elem %d: %v round-tripped to %v", i, v, back.Data[i])
		}
	}
	same := make([]float64, len(src.Data))
	Cast(same, src.Data)
	for i, v := range src.Data {
		if same[i] != v {
			t.Fatalf("same-width Cast changed elem %d: %v -> %v", i, v, same[i])
		}
	}
}

func TestCastLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"narrow": func() { Cast(make([]float32, 2), make([]float64, 3)) },
		"widen":  func() { Cast(make([]float64, 2), make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch must panic", name)
				}
			}()
			f()
		}()
	}
}

// TestMatAliasesDense: Mat[float64] has Dense's layout, so the conversion
// the float64 plans rely on shares storage and identity in both directions.
func TestMatAliasesDense(t *testing.T) {
	d := NewDense(2, 3)
	m := (*Mat[float64])(d)
	m.Data[4] = 7
	if d.At(1, 1) != 7 || m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("Mat view does not alias Dense: %+v vs %+v", m, d)
	}
	if (*Dense)(m) != d {
		t.Fatal("round-trip conversion lost pointer identity")
	}
}
