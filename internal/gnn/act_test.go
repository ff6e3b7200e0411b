package gnn

import (
	"math"
	"strings"
	"testing"
)

func TestActivationValues(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float64
		want float64
	}{
		{ReLU(), 2, 2}, {ReLU(), -2, 0},
		{LeakyReLU(0.2), 3, 3}, {LeakyReLU(0.2), -3, -0.6},
		{ELU(1), 1, 1}, {ELU(1), -1, math.Exp(-1) - 1},
		{Identity(), -7, -7},
		{Sigmoid(), 0, 0.5},
		{Tanh(), 0, 0},
	}
	for _, c := range cases {
		if got := c.act.F(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.act.Name, c.x, got, c.want)
		}
	}
}

func TestActivationDerivativesFiniteDifference(t *testing.T) {
	acts := []Activation{ReLU(), LeakyReLU(0.2), ELU(1.3), Sigmoid(), Tanh(), Identity()}
	xs := []float64{-2.3, -0.7, 0.4, 1.9, 3.5} // avoid the ReLU kink at 0
	const eps = 1e-6
	for _, a := range acts {
		for _, x := range xs {
			num := (a.F(x+eps) - a.F(x-eps)) / (2 * eps)
			if math.Abs(num-a.DF(x)) > 1e-5 {
				t.Errorf("%s'(%v) = %v, finite diff %v", a.Name, x, a.DF(x), num)
			}
		}
	}
}

func TestActivationByName(t *testing.T) {
	for _, name := range []string{"relu", "leaky-relu", "elu", "sigmoid", "tanh", "identity", ""} {
		if _, ok := ActivationByName(name); !ok {
			t.Errorf("ActivationByName(%q) failed", name)
		}
	}
	if _, ok := ActivationByName("swish"); ok {
		t.Error("unknown activation resolved")
	}
}

func TestKindStringAndParse(t *testing.T) {
	for _, k := range []Kind{VA, AGNN, GAT, GCN} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%v) = %v, %v", k, got, err)
		}
	}
	// A name without a Config kind is refused — SGC included, which used to
	// parse, silently, as GCN — and the error lists exactly the names that
	// parse.
	for _, name := range []string{"GIN", "SGC", "sgc"} {
		_, err := ParseKind(name)
		if err == nil {
			t.Fatalf("ParseKind(%q) must be rejected", name)
		}
		_, list, _ := strings.Cut(err.Error(), "want one of ")
		names := strings.Split(strings.TrimSuffix(list, ")"), ", ")
		if len(names) != 4 {
			t.Errorf("error lists %q, want the four accepted names", names)
		}
		for _, n := range names {
			if _, err := ParseKind(n); err != nil {
				t.Errorf("error text offers %q, which does not parse", n)
			}
		}
	}
	if k, err := ParseKind("gat"); err != nil || k != GAT {
		t.Error("ParseKind must be case-insensitive")
	}
}
