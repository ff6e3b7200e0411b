package distgnn

import (
	"agnn/internal/gnn"
	"agnn/internal/tensor"
)

// EvalLoss computes the masked softmax cross-entropy over the distributed
// output (diagonal-owned blocks). The loss decomposes over vertices, so
// each diagonal rank evaluates its own rows; only two scalars (loss sum and
// masked count) cross the network. Returns the global mean loss and the
// gradient block for this rank's owned rows (nil off-diagonal). The block is
// the engine's own, rewritten by the next EvalLoss.
func (e *GlobalEngine) EvalLoss(out *tensor.Dense, labels []int, mask []bool) (float64, *tensor.Dense) {
	tot := e.stage[:2]
	tot[0], tot[1] = 0, 0
	var grad *tensor.Dense
	if e.Diag {
		lo, hi := e.OwnedRange()
		e.loss.Labels, e.loss.Mask = labels, mask
		tot[0], tot[1], grad = e.loss.Sums(out, lo, hi-lo)
	}
	e.C.AllreduceInto(tot)
	if tot[1] == 0 {
		return 0, grad
	}
	inv := 1 / tot[1]
	if grad != nil {
		grad.ScaleInPlace(inv)
	}
	return tot[0] * inv, grad
}

// TrainStep runs one distributed full-batch training iteration: forward,
// distributed loss, backward, global gradient allreduce, local optimizer
// step (replicated weights stay bit-identical across ranks because every
// rank applies the same update to the same values). Every rank must pass
// its own optimizer instance; xd is the diagonal-owned input block.
func (e *GlobalEngine) TrainStep(xd *tensor.Dense, labels []int, mask []bool, opt gnn.Optimizer) float64 {
	sp := e.C.StartSpan("train_step")
	defer sp.End()
	e.ZeroGrad()
	fw := e.C.StartSpan("forward")
	out := e.Forward(xd, true)
	fw.End()
	ls := e.C.StartSpan("loss")
	loss, g := e.EvalLoss(out, labels, mask)
	ls.End()
	bw := e.C.StartSpan("backward")
	e.Backward(g)
	bw.End()
	e.AllreduceGrads()
	st := e.C.StartSpan("opt_step")
	opt.Step(e.Params())
	st.End()
	return loss
}
