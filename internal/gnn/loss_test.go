package gnn

import (
	"math"
	"math/rand"
	"testing"

	"agnn/internal/par"
	"agnn/internal/tensor"
)

func TestCrossEntropyKnownValue(t *testing.T) {
	// Two vertices, two classes; uniform logits → loss = ln 2 each.
	out := tensor.NewDense(2, 2)
	loss := &CrossEntropyLoss{Labels: []int{0, 1}}
	v, g := loss.Eval(out)
	if math.Abs(v-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v, want ln2", v)
	}
	// Gradient: (softmax - onehot)/count = ±0.25.
	want := tensor.NewDenseFrom(2, 2, []float64{-0.25, 0.25, 0.25, -0.25})
	if !g.ApproxEqual(want, 1e-12) {
		t.Fatalf("grad = %v", g)
	}
}

// TestCrossEntropyMask: a masked-out vertex contributes neither loss nor
// gradient. Sums, at one worker and at three, equals the serial loop below
// word for word on 300 vertices (above par's inline threshold): with masked
// rows, on a fully masked block (count 0, loss 0, a zero gradient) and on a
// [lo, lo+n) block, as distgnn calls it.
func TestCrossEntropyMask(t *testing.T) {
	out := tensor.NewDenseFrom(2, 2, []float64{10, -10, -10, 10})
	loss := &CrossEntropyLoss{Labels: []int{0, 0}, Mask: []bool{true, false}}
	v, g := loss.Eval(out)
	if v > 1e-6 {
		t.Fatalf("masked loss = %v, want ≈0 (vertex 0 is correct)", v)
	}
	for j := 0; j < 2; j++ {
		if g.At(1, j) != 0 {
			t.Fatal("masked vertex must have zero gradient")
		}
	}

	const n, classes = 300, 7
	rng := rand.New(rand.NewSource(3))
	logits := tensor.RandN(n, classes, 2, rng)
	labels, some, none := make([]int, n), make([]bool, n), make([]bool, n)
	for i := range labels {
		labels[i], some[i] = rng.Intn(classes), rng.Intn(3) > 0
	}
	prev := par.Workers()
	defer par.SetWorkers(prev)
	for _, tc := range []struct {
		name  string
		mask  []bool
		lo, n int
		empty bool // nothing masked in: count 0, loss 0, a zero gradient
	}{
		{"all", nil, 0, n, false},
		{"masked rows", some, 0, n, false},
		{"all masked", none, 0, n, true},
		{"block", some, 40, 260, false},
	} {
		l := &CrossEntropyLoss{Labels: labels, Mask: tc.mask}
		block := tensor.NewDenseFrom(tc.n, classes, logits.Data[tc.lo*classes:(tc.lo+tc.n)*classes])
		wantTotal, wantCount, wantGrad := serialSums(l, block, tc.lo, tc.n)
		for _, workers := range []int{1, 3} {
			par.SetWorkers(workers)
			total, count, grad := l.Sums(block, tc.lo, tc.n)
			if math.Float64bits(total) != math.Float64bits(wantTotal) || count != wantCount {
				t.Errorf("%s, %d workers: total %v over %v vertices, want %v over %v", tc.name, workers, total, count, wantTotal, wantCount)
			}
			for i, v := range grad.Data {
				if math.Float64bits(v) != math.Float64bits(wantGrad.Data[i]) {
					t.Fatalf("%s, %d workers: gradient word %d is %v, want %v", tc.name, workers, i, v, wantGrad.Data[i])
				}
			}
			if tc.empty && (total != 0 || count != 0 || grad.FrobeniusNorm() != 0) {
				t.Errorf("%s, %d workers: total %v, count %v, gradient norm %v; want zeros", tc.name, workers, total, count, grad.FrobeniusNorm())
			}
		}
	}
}

// serialSums is CrossEntropyLoss.Sums as one loop over the vertices, in the
// order their terms are summed.
func serialSums(l *CrossEntropyLoss, out *tensor.Dense, lo, n int) (total, count float64, grad *tensor.Dense) {
	grad = tensor.NewDense(out.Rows, out.Cols)
	for i := 0; i < n; i++ {
		if l.Mask != nil && !l.Mask[lo+i] {
			continue
		}
		y := l.Labels[lo+i]
		count++
		row := out.Row(i)
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - m)
		}
		logZ := m + math.Log(sum)
		total += logZ - row[y]
		grow := grad.Row(i)
		for j, v := range row {
			grow[j] = math.Exp(v - logZ)
		}
		grow[y] -= 1
	}
	return total, count, grad
}

func TestCrossEntropyAllMasked(t *testing.T) {
	out := tensor.NewDense(2, 2)
	loss := &CrossEntropyLoss{Labels: []int{0, 1}, Mask: []bool{false, false}}
	v, g := loss.Eval(out)
	if v != 0 || g.FrobeniusNorm() != 0 {
		t.Fatal("all-masked loss must be zero")
	}
}

func TestCrossEntropyGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	out := tensor.RandN(5, 4, 1, rng)
	labels := []int{1, 3, 0, 2, 2}
	loss := &CrossEntropyLoss{Labels: labels}
	_, g := loss.Eval(out)
	g = g.Clone() // the loss rewrites its gradient on every Eval below
	const eps = 1e-6
	for i := range out.Data {
		out.Data[i] += eps
		lp, _ := loss.Eval(out)
		out.Data[i] -= 2 * eps
		lm, _ := loss.Eval(out)
		out.Data[i] += eps
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-g.Data[i]) > 1e-6 {
			t.Fatalf("CE grad[%d] = %v, finite diff %v", i, g.Data[i], num)
		}
	}
}

// TestLossReusesBuffersBitwise: one loss value called again and again — a
// mask, another mask, Sums over a block with another lo and n, a fully
// masked block, a smaller output — returns its own gradient rewritten in
// full, the bits of a fresh loss's, with masked-out rows and rows at or past
// n exactly zero. The first calls fill every row, so a row a later call
// fails to rewrite shows.
func TestLossReusesBuffersBitwise(t *testing.T) {
	const n, classes = 300, 5
	rng := rand.New(rand.NewSource(7))
	logits := tensor.RandN(n, classes, 2, rng)
	labels, m1, m2, none := make([]int, n), make([]bool, n), make([]bool, n), make([]bool, n)
	for i := range labels {
		labels[i], m1[i], m2[i] = rng.Intn(classes), rng.Intn(2) == 0, rng.Intn(3) > 0
	}
	prev := par.Workers()
	defer par.SetWorkers(prev)
	same := func(what string, got, want *tensor.Dense) {
		t.Helper()
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s: gradient %d×%d, want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: gradient word %d is %v, want %v", what, i, v, want.Data[i])
			}
		}
	}
	// zeroOutside checks that the rows of g outside [0, rows) and the
	// masked-out ones among them are exactly zero.
	zeroOutside := func(what string, g *tensor.Dense, lo, rows int, mask []bool) {
		t.Helper()
		for i := 0; i < g.Rows; i++ {
			if i < rows && (mask == nil || mask[lo+i]) {
				continue
			}
			for _, v := range g.Row(i) {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s: row %d should be zero, holds %v", what, i, v)
				}
			}
		}
	}
	for _, workers := range []int{1, 3} {
		par.SetWorkers(workers)
		reused := &CrossEntropyLoss{Labels: labels}
		for _, mask := range [][]bool{nil, m1, m2} {
			reused.Mask = mask
			v, g := reused.Eval(logits)
			wv, wg := (&CrossEntropyLoss{Labels: labels, Mask: mask}).Eval(logits)
			if math.Float64bits(v) != math.Float64bits(wv) {
				t.Fatalf("workers=%d: reused loss %v, fresh %v", workers, v, wv)
			}
			same("Eval", g, wg)
			zeroOutside("Eval", g, 0, n, mask)
		}
		for _, tc := range []struct {
			name  string
			mask  []bool
			lo, n int
		}{
			{"block", m1, 40, 200},
			{"shorter block", m2, 100, 120},
			{"all masked", none, 0, n},
		} {
			reused.Mask = tc.mask
			total, count, g := reused.Sums(logits, tc.lo, tc.n)
			wt, wc, wg := (&CrossEntropyLoss{Labels: labels, Mask: tc.mask}).Sums(logits, tc.lo, tc.n)
			if math.Float64bits(total) != math.Float64bits(wt) || count != wc {
				t.Fatalf("workers=%d %s: reused %v over %v, fresh %v over %v", workers, tc.name, total, count, wt, wc)
			}
			same(tc.name, g, wg)
			zeroOutside(tc.name, g, tc.lo, tc.n, tc.mask)
			if count == 0 && g.FrobeniusNorm() != 0 {
				t.Fatalf("workers=%d %s: nothing masked in, yet the gradient is not zero", workers, tc.name)
			}
		}
		// A smaller output than the buffer's.
		reused.Mask = nil
		small := tensor.NewDenseFrom(n/2, classes, logits.Data[:n/2*classes])
		reused.Labels = labels[:n/2]
		_, g := reused.Eval(small)
		_, wg := (&CrossEntropyLoss{Labels: labels[:n/2]}).Eval(small)
		same("smaller output", g, wg)
	}

	mse := &MSELoss{Target: tensor.RandN(n, classes, 1, rng)}
	for i := 0; i < 2; i++ {
		out := tensor.RandN(n, classes, 1, rng)
		v, g := mse.Eval(out)
		wv, wg := (&MSELoss{Target: mse.Target}).Eval(out)
		if math.Float64bits(v) != math.Float64bits(wv) {
			t.Fatalf("MSE call %d: reused loss %v, fresh %v", i, v, wv)
		}
		same("MSE", g, wg)
	}
}

func TestCrossEntropyPanics(t *testing.T) {
	out := tensor.NewDense(2, 2)
	for name, l := range map[string]*CrossEntropyLoss{
		"label count": {Labels: []int{0}},
		"bad label":   {Labels: []int{0, 5}},
		"negative":    {Labels: []int{-1, 0}, Mask: []bool{true, false}},
		"mask length": {Labels: []int{0, 1}, Mask: []bool{true}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			l.Eval(out)
		}()
	}
}

func TestMSELoss(t *testing.T) {
	pred := tensor.NewDenseFrom(1, 2, []float64{1, 3})
	target := tensor.NewDenseFrom(1, 2, []float64{0, 1})
	loss := &MSELoss{Target: target}
	v, g := loss.Eval(pred)
	if math.Abs(v-2.5) > 1e-12 { // (1 + 4)/2
		t.Fatalf("MSE = %v", v)
	}
	if math.Abs(g.At(0, 0)-1) > 1e-12 || math.Abs(g.At(0, 1)-2) > 1e-12 {
		t.Fatalf("MSE grad = %v", g)
	}
}

func TestMSEGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pred := tensor.RandN(3, 3, 1, rng)
	loss := &MSELoss{Target: tensor.RandN(3, 3, 1, rng)}
	_, g := loss.Eval(pred)
	g = g.Clone() // the loss rewrites its gradient on every Eval below
	const eps = 1e-6
	for i := range pred.Data {
		pred.Data[i] += eps
		lp, _ := loss.Eval(pred)
		pred.Data[i] -= 2 * eps
		lm, _ := loss.Eval(pred)
		pred.Data[i] += eps
		if num := (lp - lm) / (2 * eps); math.Abs(num-g.Data[i]) > 1e-6 {
			t.Fatalf("MSE grad[%d] mismatch", i)
		}
	}
}

func TestAccuracy(t *testing.T) {
	out := tensor.NewDenseFrom(3, 2, []float64{2, 1, 0, 5, 1, 0})
	labels := []int{0, 1, 1}
	if got := Accuracy(out, labels, nil); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %v", got)
	}
	if got := Accuracy(out, labels, []bool{true, true, false}); got != 1 {
		t.Fatalf("masked accuracy = %v", got)
	}
	if got := Accuracy(out, labels, []bool{false, false, false}); got != 0 {
		t.Fatalf("empty-mask accuracy = %v", got)
	}
}
