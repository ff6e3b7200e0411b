package gnn

import (
	"fmt"
	"math"

	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// Loss computes a scalar training objective and its gradient ∇_{H^L}L with
// respect to the final-layer output, the quantity that bootstraps the
// backward pass (Eq. 4).
type Loss interface {
	// Eval returns the loss value and ∇_{out}L.
	Eval(out *tensor.Dense) (float64, *tensor.Dense)
	Name() string
}

// CrossEntropyLoss is the masked softmax cross-entropy over per-vertex
// class logits used for node-classification training. Vertices with
// Mask[i] == false (e.g. test vertices in a transductive split) contribute
// neither loss nor gradient; a nil Mask trains on all vertices.
//
// The loss owns the gradient it returns and rewrites it in full on the next
// call (of Eval or Sums) on the same value, so a training step allocates
// nothing for it: the gradient stays valid until then — clone it to keep it
// longer. A loss value is for one goroutine at a time.
type CrossEntropyLoss struct {
	Labels []int
	Mask   []bool

	grad  *tensor.Dense // the returned gradient, reused while out's shape holds
	terms []float64     // per-vertex loss terms, summed in vertex order
	sweep func(worker, a, b int)
	// The call's operands, read by sweep.
	out       *tensor.Dense
	lo, n     int
	gradScale float64
}

// Name implements Loss.
func (l *CrossEntropyLoss) Name() string { return "softmax-cross-entropy" }

// Eval implements Loss: mean over masked vertices of −log softmax(out)[label].
func (l *CrossEntropyLoss) Eval(out *tensor.Dense) (float64, *tensor.Dense) {
	if len(l.Labels) != out.Rows {
		panic(fmt.Sprintf("gnn: %d labels for %d rows", len(l.Labels), out.Rows))
	}
	if l.Mask != nil && len(l.Mask) != out.Rows {
		panic("gnn: mask length mismatch")
	}
	count := l.count(out, 0, out.Rows)
	if count == 0 {
		l.run(out, 0, out.Rows, 1)
		return 0, l.grad
	}
	// The mean's 1/count scales each gradient row as it is written: the
	// same product per word as scaling the whole gradient afterwards.
	inv := 1 / count
	return l.run(out, 0, out.Rows, inv) * inv, l.grad
}

// Sums evaluates the loss over vertices [lo, lo+n), whose logits are the
// first n rows of out, before the mean is taken: the loss sum, the number of
// masked-in vertices, and the gradient of the sum (shaped like out; masked-out
// rows and rows past n are zero). The loss decomposes over vertices, so a
// distributed engine calls it per owned block and divides by the global
// count — the same arithmetic, in the same order, as Eval on one node. The
// vertices' terms and gradient rows are computed in parallel; the terms are
// then summed in vertex order, so the total does not depend on the worker
// count. The gradient is the loss's own (see CrossEntropyLoss).
func (l *CrossEntropyLoss) Sums(out *tensor.Dense, lo, n int) (total, count float64, grad *tensor.Dense) {
	count = l.count(out, lo, n)
	return l.run(out, lo, n, 1), count, l.grad
}

// count returns the number of masked-in vertices in [lo, lo+n). It runs on
// the caller's goroutine, so that a bad label panics there.
func (l *CrossEntropyLoss) count(out *tensor.Dense, lo, n int) (count float64) {
	for i := 0; i < n; i++ {
		if !l.in(lo + i) {
			continue
		}
		if y := l.Labels[lo+i]; y < 0 || y >= out.Cols {
			panic(fmt.Sprintf("gnn: label %d out of range [0,%d)", y, out.Cols))
		}
		count++
	}
	return count
}

// run writes every row of the loss's gradient for vertices [lo, lo+n) of
// out, each masked-in row scaled by gradScale and every other row zero, and
// returns the sum of the masked-in vertices' terms.
func (l *CrossEntropyLoss) run(out *tensor.Dense, lo, n int, gradScale float64) (total float64) {
	if l.grad == nil || l.grad.Rows != out.Rows || l.grad.Cols != out.Cols {
		l.grad = tensor.NewDense(out.Rows, out.Cols)
	}
	if cap(l.terms) < n {
		l.terms = make([]float64, n)
	}
	l.terms = l.terms[:n]
	if l.sweep == nil {
		l.sweep = l.rows
	}
	l.out, l.lo, l.n, l.gradScale = out, lo, n, gradScale
	par.Range(out.Rows, l.sweep)
	l.out = nil
	for i, term := range l.terms {
		if l.in(lo + i) {
			total += term
		}
	}
	return total
}

// rows is run's sweep over the gradient rows [a, b).
func (l *CrossEntropyLoss) rows(_, a, b int) {
	for i := a; i < b; i++ {
		grow := l.grad.Row(i)
		if i >= l.n || !l.in(l.lo+i) {
			clear(grow)
			continue
		}
		l.terms[i] = vertexLoss(l.out.Row(i), grow, l.Labels[l.lo+i])
		if l.gradScale != 1 {
			for j := range grow {
				grow[j] *= l.gradScale
			}
		}
	}
}

// in reports whether vertex v is masked in.
func (l *CrossEntropyLoss) in(v int) bool { return l.Mask == nil || l.Mask[v] }

// vertexLoss returns one vertex's term −log softmax(row)[y] and writes its
// gradient, softmax(row) − onehot(y), to grow. The exponentials are
// sparse.ExpRow's, math.Exp's bits: exp(row − m) into grow first, summed in
// order, then the softmax probabilities exp(row − logZ) over them.
func vertexLoss(row, grow []float64, y int) float64 {
	m := math.Inf(-1)
	for _, v := range row {
		if v > m {
			m = v
		}
	}
	sparse.ExpRow(grow, row, m)
	sum := 0.0
	for _, v := range grow[:len(row)] {
		sum += v
	}
	logZ := m + math.Log(sum)
	sparse.ExpRow(grow, row, logZ)
	grow[y] -= 1
	return logZ - row[y]
}

// MSELoss is the mean squared error ‖out − Target‖²/(n·k), used for
// regression-style targets and for gradient checking. Like CrossEntropyLoss
// it owns the gradient it returns: valid until the next Eval on the same
// value.
type MSELoss struct {
	Target *tensor.Dense

	grad *tensor.Dense
}

// Name implements Loss.
func (l *MSELoss) Name() string { return "mse" }

// Eval implements Loss.
func (l *MSELoss) Eval(out *tensor.Dense) (float64, *tensor.Dense) {
	if out.Rows != l.Target.Rows || out.Cols != l.Target.Cols {
		panic("gnn: MSE shape mismatch")
	}
	if l.grad == nil || l.grad.Rows != out.Rows || l.grad.Cols != out.Cols {
		l.grad = tensor.NewDense(out.Rows, out.Cols)
	}
	n := float64(out.Rows * out.Cols)
	diff := l.grad
	diff.CopyFrom(out)
	diff.AxpyInPlace(-1, l.Target) // out − Target: x + (−1·t) rounds as x − t
	loss := 0.0
	for _, v := range diff.Data {
		loss += v * v
	}
	return loss / n, diff.ScaleInPlace(2 / n)
}

// Accuracy returns the fraction of (masked) vertices whose argmax logit
// equals the label.
func Accuracy(out *tensor.Dense, labels []int, mask []bool) float64 {
	correct, count := 0, 0
	for i := 0; i < out.Rows; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		count++
		row := out.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(correct) / float64(count)
}
