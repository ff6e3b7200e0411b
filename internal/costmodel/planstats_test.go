package costmodel

import (
	"math/rand"
	"strings"
	"testing"

	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/tensor"
)

// TestProfilePlanReadsCompiledCounts: the cost model must report the op
// counts of the plan the runtime actually executes — including the
// Section 6.2 fusion savings — rather than estimating them from the model
// kind.
func TestProfilePlanReadsCompiledCounts(t *testing.T) {
	a := graph.ErdosRenyi(30, 90, 1)
	rng := rand.New(rand.NewSource(2))
	h := tensor.RandN(30, 4, 1, rng)

	agnn := gnn.NewAGNNLayer(a, 4, 3, gnn.Tanh(), rng)
	agnn.Forward(h, true)
	prof := ProfilePlan(agnn.Plan())
	if !prof.Train {
		t.Fatal("AGNN layer plan must be a training plan")
	}
	// AGNN forward: rownorm, mm, fused attention (sampling+softmax+spmm in
	// one sweep), sigma = 4.
	if prof.ForwardKernels != 4 {
		t.Fatalf("AGNN forward kernels = %d, want 4", prof.ForwardKernels)
	}
	if prof.AttnFused != 1 {
		t.Fatalf("AGNN attn-fused count = %d, want 1", prof.AttnFused)
	}
	if prof.BackwardKernels == 0 {
		t.Fatal("training plan must report backward kernels")
	}
	// The virtual chain HHᵀ ⊘ nnᵀ scaled by β is fully fused (4 virtual
	// nodes), and the softmax folded into the sampling sweep.
	if prof.FusedVirtual != 4 || prof.SoftmaxFused != 1 {
		t.Fatalf("AGNN fusion counts = (%d, %d), want (4, 1)",
			prof.FusedVirtual, prof.SoftmaxFused)
	}
	if prof.WorkspaceBytes <= 0 {
		t.Fatal("compiled plan must hold preallocated workspace")
	}
	if prof.KernelInvocations() != prof.ForwardKernels+prof.BackwardKernels {
		t.Fatal("KernelInvocations mismatch")
	}
	s := prof.String()
	for _, want := range []string{"agnn", "train", "fused-attn"} {
		if !strings.Contains(s, want) {
			t.Fatalf("profile string missing %q: %s", want, s)
		}
	}

	gat := gnn.NewGATLayer(a, 4, 3, gnn.Tanh(), 0.2, rng)
	gat.Forward(h, true)
	gprof := ProfilePlan(gat.Plan())
	// GAT forward: mm, matvec×2, fused attention, sigma = 5.
	if gprof.ForwardKernels != 5 {
		t.Fatalf("GAT forward kernels = %d, want 5", gprof.ForwardKernels)
	}
	if gprof.OpCounts["matvec"] != 2 {
		t.Fatalf("GAT matvec count = %d, want 2", gprof.OpCounts["matvec"])
	}
}
