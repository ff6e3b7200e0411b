package tensor

import "testing"

func TestArenaRecyclesByShape(t *testing.T) {
	a := NewArena()
	m := AcquireMat[float64](a, 4, 3)
	(*Dense)(m).Fill(7)
	ReleaseMat(a, m)
	m2 := AcquireMat[float64](a, 4, 3)
	if m2 != m {
		t.Fatal("same-shape acquire did not recycle the released buffer")
	}
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("recycled buffer not zeroed")
		}
	}
	if m3 := AcquireMat[float64](a, 3, 4); m3 == m {
		t.Fatal("different shape must not recycle")
	}
	if a.Bytes() != (4*3+3*4)*8 {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
}

func TestArenaFloats(t *testing.T) {
	a := NewArena()
	s := AcquireSlice[float64](a, 10)
	s[0] = 1
	ReleaseSlice(a, s)
	s2 := AcquireSlice[float64](a, 10)
	if &s2[0] != &s[0] {
		t.Fatal("floats not recycled")
	}
	if s2[0] != 0 {
		t.Fatal("recycled floats not zeroed")
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d", a.Live())
	}
}

func TestArenaSteadyStateDoesNotAllocate(t *testing.T) {
	a := NewArena()
	ReleaseMat(a, AcquireMat[float64](a, 8, 8))
	allocs := testing.AllocsPerRun(100, func() {
		m := AcquireMat[float64](a, 8, 8)
		ReleaseMat(a, m)
	})
	if allocs > 0 {
		t.Fatalf("steady-state acquire/release allocated %v times", allocs)
	}
}

// TestArenaPoolsByElementType: float32 and float64 buffers of one shape live
// in separate free lists and are tracked at their own width.
func TestArenaPoolsByElementType(t *testing.T) {
	a := NewArena()
	m32 := AcquireMat[float32](a, 4, 3)
	if a.Bytes() != 4*3*4 || a.LiveBytes() != 4*3*4 {
		t.Fatalf("f32 4×3 tracked as %d/%d bytes, want 48", a.Bytes(), a.LiveBytes())
	}
	m32.Data[0] = 1
	ReleaseMat(a, m32)
	AcquireMat[float64](a, 4, 3) // same shape, other width: must not recycle m32
	if a.Bytes() != 4*3*(4+8) {
		t.Fatalf("Bytes = %d after f64 acquire, want %d", a.Bytes(), 4*3*(4+8))
	}
	if again := AcquireMat[float32](a, 4, 3); again != m32 || again.Data[0] != 0 {
		t.Fatal("f32 buffer not recycled zeroed from its own pool")
	}
	s := AcquireSlice[float32](a, 10)
	ReleaseSlice(a, s)
	if s2 := AcquireSlice[float32](a, 10); &s2[0] != &s[0] {
		t.Fatal("f32 slice not recycled")
	}
	if a.Live() != 3 {
		t.Fatalf("Live = %d, want 3", a.Live())
	}
}
