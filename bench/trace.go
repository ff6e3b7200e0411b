package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// The benchmark's own span recorder. Spans bracket the calls into each
// layer's public functions from outside; spans inside the program are a
// later issue. Everything stays in memory until write.

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Step   int    `json:"step"`   // shared by every span of one step or request
	Rank   int    `json:"rank"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, the handle for end and for
// children's parent.
func (t *tracer) begin(name string, parent, step, rank int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Step: step, Rank: rank})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// in records f as a child span of parent.
func (t *tracer) in(name string, parent, step, rank int, f func()) {
	i := t.begin(name, parent, step, rank)
	f()
	t.end(i)
}

// add records a span whose start and end were measured elsewhere (the
// serving engine reports its stages as durations) and returns its index.
func (t *tracer) add(name string, parent, step int, start time.Time, d time.Duration) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Step: step})
	return len(t.spans) - 1
}

// seconds returns the duration of every span with the given name on the
// given rank (rank < 0: all ranks), in recording order.
func (t *tracer) seconds(name string, rank int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (rank < 0 || s.Rank == rank) {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// closure is the time covered by the children of spans named parent over
// the time of those spans: 1 when the children account for all of it. A
// span's self time is what this leaves over.
func (t *tracer) closure(parent string) float64 {
	var whole, parts int64
	for i, s := range t.spans {
		if s.Name == parent {
			whole += s.End - s.Start
		}
		if s.Parent >= 0 && t.spans[s.Parent].Name == parent {
			parts += t.spans[i].End - t.spans[i].Start
		}
	}
	return float64(parts) / float64(whole)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
