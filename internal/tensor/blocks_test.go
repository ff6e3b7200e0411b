package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestRowNorms(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{3, 4, 0, 0})
	n := RowNorms(m)
	if n[0] != 5 || n[1] != 0 {
		t.Fatalf("RowNorms = %v", n)
	}
}

func TestDotAxpy(t *testing.T) {
	x, y := []float64{1, 2, 3}, []float64{4, 5, 6}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := RandN(4, 4, 1, rand.New(rand.NewSource(42)))
	b := RandN(4, 4, 1, rand.New(rand.NewSource(42)))
	if !a.ApproxEqual(b, 0) {
		t.Fatal("RandN not deterministic for fixed seed")
	}
	c := RandUniform(4, 4, -1, 1, rand.New(rand.NewSource(42)))
	for _, v := range c.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("RandUniform out of range: %v", v)
		}
	}
}

func TestGlorotInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := GlorotInit(16, 32, rng)
	bound := math.Sqrt(6.0 / 48.0)
	for _, v := range w.Data {
		if v < -bound || v > bound {
			t.Fatalf("Glorot value %v outside ±%v", v, bound)
		}
	}
	if w.Rows != 16 || w.Cols != 32 {
		t.Fatalf("Glorot shape %d×%d", w.Rows, w.Cols)
	}
}
