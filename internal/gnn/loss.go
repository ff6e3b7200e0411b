package gnn

import (
	"fmt"
	"math"

	"agnn/internal/par"
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
type CrossEntropyLoss struct {
	Labels []int
	Mask   []bool
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
	total, count, grad := l.Sums(out, 0, out.Rows)
	if count == 0 {
		return 0, grad
	}
	inv := 1 / count
	grad.ScaleInPlace(inv)
	return total * inv, grad
}

// Sums evaluates the loss over vertices [lo, lo+n), whose logits are the
// first n rows of out, before the mean is taken: the loss sum, the number of
// masked-in vertices, and the gradient of the sum (shaped like out; rows past
// n stay zero). The loss decomposes over vertices, so a distributed engine
// calls it per owned block and divides by the global count — the same
// arithmetic, in the same order, as Eval on one node. The vertices' terms and
// gradient rows are computed in parallel; the terms are then summed in vertex
// order, so the total does not depend on the worker count.
func (l *CrossEntropyLoss) Sums(out *tensor.Dense, lo, n int) (total, count float64, grad *tensor.Dense) {
	for i := 0; i < n; i++ { // here, so that a bad label panics on the caller's goroutine
		if !l.in(lo + i) {
			continue
		}
		if y := l.Labels[lo+i]; y < 0 || y >= out.Cols {
			panic(fmt.Sprintf("gnn: label %d out of range [0,%d)", y, out.Cols))
		}
		count++
	}
	g := tensor.NewDense(out.Rows, out.Cols)
	terms := make([]float64, n)
	par.Range(n, func(_, a, b int) {
		for i := a; i < b; i++ {
			if l.in(lo + i) {
				terms[i] = vertexLoss(out.Row(i), g.Row(i), l.Labels[lo+i])
			}
		}
	})
	for i, term := range terms {
		if l.in(lo + i) {
			total += term
		}
	}
	return total, count, g
}

// in reports whether vertex v is masked in.
func (l *CrossEntropyLoss) in(v int) bool { return l.Mask == nil || l.Mask[v] }

// vertexLoss returns one vertex's term −log softmax(row)[y] and writes its
// gradient, softmax(row) − onehot(y), to grow.
func vertexLoss(row, grow []float64, y int) float64 {
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
	for j, v := range row {
		grow[j] = math.Exp(v - logZ) // softmax probability
	}
	grow[y] -= 1
	return logZ - row[y]
}

// MSELoss is the mean squared error ‖out − Target‖²/(n·k), used for
// regression-style targets and for gradient checking.
type MSELoss struct {
	Target *tensor.Dense
}

// Name implements Loss.
func (l *MSELoss) Name() string { return "mse" }

// Eval implements Loss.
func (l *MSELoss) Eval(out *tensor.Dense) (float64, *tensor.Dense) {
	if out.Rows != l.Target.Rows || out.Cols != l.Target.Cols {
		panic("gnn: MSE shape mismatch")
	}
	n := float64(out.Rows * out.Cols)
	diff := out.Sub(l.Target)
	loss := 0.0
	for _, v := range diff.Data {
		loss += v * v
	}
	return loss / n, diff.Scale(2 / n)
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
