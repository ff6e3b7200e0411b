package net

import (
	"slices"
	"sync"

	"agnn/internal/obs/metrics"
)

// frameWords is what the buffer of a message holds beyond its words: three
// spare bytes, the length prefix and the data-frame header, so that a
// frame's words start on a word.
const frameWords = (3 + 4 + dataFrameHeaderLen) / 8

// wordPool is a free list of wire buffers matched by exact capacity. The
// buffer of an n-word message has capacity n+frameWords: its first n words
// are a received payload, its bytes [3, 8(n+frameWords)) the data frame that
// sends n words. SPMD traffic repeats its message sizes every step, so once
// warm every take is a hit. The pool keeps a free buffer only while the
// bytes free and out stay within twice the most ever out at once, dropping
// the oldest past that. Safe for concurrent use; the zero value is empty.
type wordPool struct {
	mu                sync.Mutex
	free              [][]float64 // oldest first
	freeB, outB, peak int         // bytes free, bytes out, the most ever out
}

// wire is the process's one pool: the frames and payloads of every TCP
// endpoint, and the channel world's payloads.
var wire wordPool

// take returns the buffer of an n-word message, n words long. A nil pool
// allocates.
func (p *wordPool) take(n int) []float64 {
	size := n + frameWords
	if p == nil {
		return make([]float64, n, size)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.outB += 8 * size
	p.peak = max(p.peak, p.outB)
	if i := slices.IndexFunc(p.free, func(b []float64) bool { return cap(b) == size }); i >= 0 {
		b := p.free[i]
		p.free = slices.Delete(p.free, i, i+1)
		p.freeB -= 8 * size
		return b[:n]
	}
	for len(p.free) > 0 && p.freeB+p.outB > 2*p.peak {
		p.freeB -= 8 * cap(p.free[0])
		p.free = slices.Delete(p.free, 0, 1)
	}
	metrics.NetPoolBytes.Set(float64(p.freeB + p.outB))
	metrics.NetPoolPeakBytes.SetMax(float64(p.freeB + p.outB))
	return make([]float64, n, size)
}

// payload returns n words for a received payload (nil for n = 0).
func (p *wordPool) payload(n int) []float64 {
	if n == 0 {
		return nil
	}
	return p.take(n)
}

// frame returns the buffer of an n-word message and its frame view,
// dataFrameLen(n) bytes long.
func (p *wordPool) frame(n int) ([]float64, []byte) {
	b := p.take(n)
	return b, wordBytes(b[:cap(b)])[3:]
}

// forget stops counting a buffer take returned as out: its caller keeps it,
// and it never comes back.
func (p *wordPool) forget(b []float64) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.mu.Lock()
	p.outB -= 8 * cap(b)
	p.mu.Unlock()
}

// put hands back a buffer take returned; the caller must not touch it
// afterwards.
func (p *wordPool) put(b []float64) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.mu.Lock()
	p.outB, p.freeB = p.outB-8*cap(b), p.freeB+8*cap(b)
	p.free = append(p.free, b)
	p.mu.Unlock()
}
