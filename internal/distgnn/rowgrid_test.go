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

// runRowGrid executes a full inference on the p×1 grid of p simulated ranks
// and returns the rank-0-gathered output.
func runRowGrid(t *testing.T, p int, a *sparse.CSR, cfg gnn.Config, h *tensor.Dense) *tensor.Dense {
	t.Helper()
	var got *tensor.Dense
	var mu sync.Mutex
	dist.Run(p, func(c *dist.Comm) {
		e, err := NewRowGrid(c, a, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		if full := e.GatherOutput(e.Forward(e.SliceOwnedBlock(h), false), cfg.OutDim); full != nil {
			mu.Lock()
			got = full
			mu.Unlock()
		}
	})
	return got
}

// TestReplicationAblation: the 2D grid engine must move asymptotically less
// data than the 1D layout — the volume gap that motivates the paper's
// distribution (the p×1 grid is Θ(nk) per rank; the √p×√p one O(nk/√p)).
func TestReplicationAblation(t *testing.T) {
	n, k := 256, 16
	a := graph.ErdosRenyi(n, 8*n, 51)
	cfg := testCfg(gnn.GAT, 3, k, k, k)
	h := testFeatures(n, k)
	const p = 16
	volume := func(newEngine func(*dist.Comm, *sparse.CSR, gnn.Config) (*GlobalEngine, error)) int64 {
		cs := dist.Run(p, func(c *dist.Comm) {
			e, err := newEngine(c, a, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			defer e.Close()
			e.Forward(e.SliceOwnedBlock(h), false)
		})
		return dist.MaxCounters(cs).BytesSent
	}
	v1, v2 := volume(NewRowGrid), volume(NewGlobalEngine)
	if v2 >= v1 {
		t.Fatalf("2D grid (%d B) should move less than the p×1 grid (%d B)", v2, v1)
	}
}

// TestRowGridVolumeIndependentOfP: the 1D layout does not strong-scale in
// communication. A GCN layer on the p×1 grid crosses one matrix along the
// column, H·W (k wide, npad/p rows per rank), and its ring allgather has a
// rank forward every block but its own: (p−1)·(n/p)·k words in p−1
// messages per layer, → n·k as p grows. (The former row engine's blocking
// allgather first circulated the p−1 block lengths, one word each:
// (p−1)·(n/p)·k + p−1 words in 2(p−1) messages.)
func TestRowGridVolumeIndependentOfP(t *testing.T) {
	n, k, layers := 240, 8, 2
	a := graph.ErdosRenyi(n, 5*n, 52)
	cfg := testCfg(gnn.GCN, layers, k, k, k)
	h := testFeatures(n, k)
	for _, p := range []int{4, 16} {
		cs := dist.Run(p, func(c *dist.Comm) {
			e, err := NewRowGrid(c, a, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			defer e.Close()
			e.Forward(e.SliceOwnedBlock(h), false)
		})
		words, msgs := (p-1)*(n/p)*k, p-1
		want := dist.Counters{BytesSent: int64(8 * layers * words), MsgsSent: int64(layers * msgs)}
		got := dist.MaxCounters(cs)
		if got.BytesSent != want.BytesSent || got.MsgsSent != want.MsgsSent {
			t.Errorf("p=%d: max per-rank %d B in %d msgs, want %d B in %d msgs",
				p, got.BytesSent, got.MsgsSent, want.BytesSent, want.MsgsSent)
		}
	}
}

// TestRowGridRejectsUnknownModel: what the 1D layouts cannot run they must
// refuse — an unknown kind, and, on the hand-written local baseline only,
// multi-head GAT, which has no local-formulation layer (mirroring one head
// would be a different model from the one gnn.New builds).
func TestRowGridRejectsUnknownModel(t *testing.T) {
	a := graph.ErdosRenyi(10, 30, 53)
	unknown := testCfg(gnn.Kind(99), 1, 2, 2, 2)
	multiHead := testCfg(gnn.GAT, 2, 2, 2, 2)
	multiHead.Heads = 2
	live := fuse.LivePlans()
	dist.Run(2, func(c *dist.Comm) {
		if _, err := NewRowGrid(c, a, unknown); err == nil {
			t.Error("p×1 grid: unknown model accepted")
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
