//go:build go1.24

package fuse

import (
	"runtime"
	"testing"
	"weak"

	"agnn/internal/tensor"
)

// TestIdlePlanHoldsNoCallerMatrix: once its lease is released, a cached plan
// keeps neither the input it was bound to nor the output cotangent it read
// by reference alive. At float64 both are the caller's own matrices, aliased
// by the boundary; the cache budget counts only the plan's workspace.
func TestIdlePlanHoldsNoCallerMatrix(t *testing.T) {
	a := cacheTestCSR(32, 128, 1)
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		t.Run(dt.String(), func(t *testing.T) {
			c := NewPlanCache(0)
			w := ParamRef{Name: "W", Value: tensor.NewDense(4, 3), Grad: tensor.NewDense(4, 3)}
			l := c.Get(KeyFor(a, 4, dt, "detach-test"), func(ws *tensor.Arena) *Plan {
				g := NewGraph("detach", a)
				h := g.InputDense("H", a.Rows, 4)
				g.SetOutput(g.SpMM("Z", g.Adj(), g.MM("HW", h, g.ParamNode("W", w))))
				return g.MustCompile(Options{Train: true, Workspace: ws, DType: dt})
			})
			in, gOut := weakRun(l.Plan(), tensor.NewDense(a.Rows, 4), tensor.NewDense(a.Rows, 3))
			l.Release()
			runtime.GC()
			if in.Value() != nil {
				t.Error("the idle plan keeps its last input alive")
			}
			if gOut.Value() != nil {
				t.Error("the idle plan keeps its last output cotangent alive")
			}
			c.Purge()
		})
	}
}

// weakRun runs one training step of p on h and g and returns weak pointers
// to them: nothing on the caller's stack holds either afterwards.
func weakRun(p *Plan, h, g *tensor.Dense) (weak.Pointer[tensor.Dense], weak.Pointer[tensor.Dense]) {
	p.Forward(h)
	p.Backward(g)
	return weak.Make(h), weak.Make(g)
}
