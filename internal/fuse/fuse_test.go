package fuse

import (
	"strings"
	"testing"
)

func TestAnalyzePanicsOnEscapedVirtual(t *testing.T) {
	d := NewDAG("bad")
	h := d.Input("H", Dense)
	v := d.Add("V", "mmt", Virtual, h, h)
	d.Add("D", "sigma", Dense, v) // dense consumer of a virtual: forbidden
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "materialization") {
			t.Fatalf("expected materialization panic, got %v", r)
		}
	}()
	Analyze(d)
}

func TestAnalyzePanicsOnUnsampledVirtual(t *testing.T) {
	d := NewDAG("dangling")
	h := d.Input("H", Dense)
	d.Add("V", "mmt", Virtual, h, h) // never consumed
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsampled virtual node")
		}
	}()
	Analyze(d)
}

func TestDAGBasics(t *testing.T) {
	d := NewDAG("t")
	a := d.Input("A", Sparse)
	if d.Node("A") != a || len(d.Nodes()) != 1 {
		t.Fatal("lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected duplicate-id panic")
		}
	}()
	d.Input("A", Dense)
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Dense: "dense", Sparse: "sparse",
		Virtual: "virtual", Vector: "vector", Scalar: "scalar", Param: "param"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", int(k), k.String())
		}
	}
}
