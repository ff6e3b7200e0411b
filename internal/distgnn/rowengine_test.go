package distgnn

import (
	"sync"
	"testing"

	"agnn/internal/dist"
	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// runRowEngine executes a full RowEngine inference on p simulated ranks and
// returns the rank-0-gathered output.
func runRowEngine(t *testing.T, p int, a *sparse.CSR, cfg gnn.Config, h *tensor.Dense) *tensor.Dense {
	t.Helper()
	var got *tensor.Dense
	var mu sync.Mutex
	dist.Run(p, func(c *dist.Comm) {
		e, err := NewRowEngine(c, a, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		if full := e.GatherOutput(e.Forward(h.SliceRows(e.Lo, e.Hi).Clone())); full != nil {
			mu.Lock()
			got = full
			mu.Unlock()
		}
	})
	return got
}

// TestReplicationAblation: the 2D grid engine must move asymptotically less
// data than the 1D layout — the volume gap that motivates the paper's
// distribution (1D is Θ(nk) per rank; 2D is O(nk/√p)).
func TestReplicationAblation(t *testing.T) {
	n, k := 256, 16
	a := graph.ErdosRenyi(n, 8*n, 51)
	cfg := testCfg(gnn.GAT, 3, k, k, k)
	h := testFeatures(n, k)
	p := 16

	cs1 := dist.Run(p, func(c *dist.Comm) {
		e, err := NewRowEngine(c, a, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		e.Forward(h.SliceRows(e.Lo, e.Hi).Clone())
	})
	cs2 := dist.Run(p, func(c *dist.Comm) {
		e, err := NewGlobalEngine(c, a, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		e.Forward(e.SliceOwnedBlock(h), false)
	})
	v1 := dist.MaxCounters(cs1).BytesSent
	v2 := dist.MaxCounters(cs2).BytesSent
	if v2 >= v1 {
		t.Fatalf("2D grid (%d B) should move less than 1D layout (%d B)", v2, v1)
	}
}

// TestRowEngineVolumeIndependentOfP: the 1D layout does not strong-scale in
// communication. Per layer a rank's ring allgather forwards every row block
// but one — (p−1)/p · n·k words on an even partition, → n·k as p grows — and
// the blocking collective first circulates the p−1 block lengths, one word
// each.
func TestRowEngineVolumeIndependentOfP(t *testing.T) {
	n, k, layers := 240, 8, 2
	a := graph.ErdosRenyi(n, 5*n, 52)
	cfg := testCfg(gnn.GCN, layers, k, k, k)
	h := testFeatures(n, k)
	for _, p := range []int{4, 16} {
		cs := dist.Run(p, func(c *dist.Comm) {
			e, err := NewRowEngine(c, a, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			defer e.Close()
			e.Forward(h.SliceRows(e.Lo, e.Hi).Clone())
		})
		words, msgs := (p-1)*(n/p)*k+(p-1), 2*(p-1)
		want := dist.Counters{BytesSent: int64(8 * layers * words), MsgsSent: int64(layers * msgs)}
		got := dist.MaxCounters(cs)
		if got.BytesSent != want.BytesSent || got.MsgsSent != want.MsgsSent {
			t.Errorf("p=%d: max per-rank %d B in %d msgs, want %d B in %d msgs",
				p, got.BytesSent, got.MsgsSent, want.BytesSent, want.MsgsSent)
		}
	}
}

// TestRowEngineRejectsUnknownModel: what the 1D engines cannot run they
// must refuse — an unknown kind, and, on the hand-written local baseline
// only, multi-head GAT, which has no local-formulation layer (mirroring one
// head would be a different model from the one gnn.New builds).
func TestRowEngineRejectsUnknownModel(t *testing.T) {
	a := graph.ErdosRenyi(10, 30, 53)
	unknown := testCfg(gnn.Kind(99), 1, 2, 2, 2)
	multiHead := testCfg(gnn.GAT, 2, 2, 2, 2)
	multiHead.Heads = 2
	live := fuse.LivePlans()
	dist.Run(2, func(c *dist.Comm) {
		if _, err := NewRowEngine(c, a, unknown); err == nil {
			t.Error("row engine: unknown model accepted")
		}
		for name, cfg := range map[string]gnn.Config{"unknown model": unknown, "multi-head GAT": multiHead} {
			if _, err := NewLocalEngine(c, a, cfg); err == nil {
				t.Errorf("local engine: %s accepted", name)
			}
		}
	})
	if got := fuse.LivePlans(); got != live {
		t.Errorf("refused engines left %d plans live", got-live)
	}
}
