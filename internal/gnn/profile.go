package gnn

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"agnn/internal/obs"
)

// Per-layer profiling: a model times each of its layers where it runs it
// (Model.forwardLayer / backwardLayer), through one obs.Layer instrument
// per layer. The instrument accumulates the forward and backward wall times
// the -profile table prints — the shared-memory performance-analysis
// counterpart of the distributed engines' byte counters — and writes the
// "layer0.forward(gat)" records that, in a trace, nest the layer's plan-op
// spans.

// layerSites returns the layers' instruments, wiring them on first use on
// the calling goroutine's log: a model stepped by a rank belongs to that
// rank. Serving runners rebind one model concurrently, hence the atomic
// pointer; two that race both wire a set and one set is kept.
func (m *Model) layerSites() []*obs.Layer {
	if p := m.sites.Load(); p != nil && len(*p) == len(m.Layers) {
		return *p
	}
	sites := make([]*obs.Layer, len(m.Layers))
	log := obs.Current()
	for i, l := range m.Layers {
		sites[i] = obs.NewLayer(log, i, l.Name())
	}
	m.sites.Store(&sites)
	return sites
}

// Profile returns the per-layer wall times accumulated so far by this model
// and the models rebound from it.
func (m *Model) Profile() *Profile {
	prof := &Profile{}
	for i, site := range m.layerSites() {
		s := &LayerStats{Index: i, Name: m.Layers[i].Name()}
		s.Forward, s.Backward, s.Calls = site.Totals()
		prof.Stats = append(prof.Stats, s)
	}
	return prof
}

// LayerStats is the accumulated timing of one layer.
type LayerStats struct {
	Index    int
	Name     string
	Forward  time.Duration
	Backward time.Duration
	Calls    int
}

// Profile is a snapshot of a model's per-layer statistics.
type Profile struct {
	Stats []*LayerStats
}

// TotalForward sums forward time across layers.
func (p *Profile) TotalForward() time.Duration {
	var t time.Duration
	for _, s := range p.Stats {
		t += s.Forward
	}
	return t
}

// TotalBackward sums backward time across layers.
func (p *Profile) TotalBackward() time.Duration {
	var t time.Duration
	for _, s := range p.Stats {
		t += s.Backward
	}
	return t
}

// TotalCalls sums forward invocations across layers.
func (p *Profile) TotalCalls() int {
	n := 0
	for _, s := range p.Stats {
		n += s.Calls
	}
	return n
}

// String renders a table sorted by total time, heaviest first.
func (p *Profile) String() string {
	rows := append([]*LayerStats(nil), p.Stats...)
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].Forward+rows[i].Backward > rows[j].Forward+rows[j].Backward
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-14s %12s %12s %8s\n", "layer", "kind", "forward", "backward", "calls")
	for _, s := range rows {
		fmt.Fprintf(&b, "%-6d %-14s %12s %12s %8d\n",
			s.Index, s.Name, s.Forward.Round(time.Microsecond),
			s.Backward.Round(time.Microsecond), s.Calls)
	}
	fmt.Fprintf(&b, "total  %-14s %12s %12s %8d\n", "",
		p.TotalForward().Round(time.Microsecond), p.TotalBackward().Round(time.Microsecond),
		p.TotalCalls())
	return b.String()
}
