package tensor

import (
	"fmt"
	"sync"
	"unsafe"

	"agnn/internal/obs"
	"agnn/internal/obs/metrics"
)

// Arena is a shape-keyed buffer pool: the workspace substrate of the
// compiled execution plans (internal/fuse). A plan acquires every
// intermediate it needs once, at compile time, and reuses the buffers on
// every subsequent step, so steady-state training does no per-step
// allocations on the hot path. Buffers released back to the arena are
// recycled for later acquisitions of the same shape and element type, which
// lets non-overlapping intermediates share storage. Every buffer is tracked
// at its true element width, so the arena gauges reflect the halved
// footprint of float32 plans.
//
// An Arena may be used from several goroutines at once: every plan of the
// process draws on one, and the ranks of an in-process world, each on its own
// goroutine, lay out their steps' workspaces at the same time.
type Arena struct {
	mu  sync.Mutex
	f64 pool[float64]
	f32 pool[float32]

	out       int   // buffers handed out and not released (all pools)
	bytes     int64 // total bytes ever allocated by this arena
	liveBytes int64 // bytes currently held by acquirers
}

// pool holds the free lists of one element type.
type pool[T Elem] struct {
	mats   map[[2]int][]*Mat[T]
	slices map[int][][]T
}

func newPool[T Elem]() pool[T] {
	return pool[T]{mats: make(map[[2]int][]*Mat[T]), slices: make(map[int][][]T)}
}

// poolOf selects the arena's free lists for element type T.
func poolOf[T Elem](a *Arena) *pool[T] {
	if p, ok := any(&a.f64).(*pool[T]); ok {
		return p
	}
	return any(&a.f32).(*pool[T])
}

// elemBytes returns n elements of T in bytes.
func elemBytes[T Elem](n int) int64 {
	var z T
	return int64(unsafe.Sizeof(z)) * int64(n)
}

// View lays n elements of T over the float64 words of raw, from its first:
// the slice shares raw's storage. A planned workspace slot is raw words, and
// each buffer placed in it views it at its own width. It panics if the n
// elements need more bytes than raw holds.
func View[T Elem](raw []float64, n int) []T {
	if n == 0 {
		return nil
	}
	if elemBytes[T](n) > elemBytes[float64](len(raw)) {
		panic(fmt.Sprintf("tensor: View of %d B over %d B", elemBytes[T](n), elemBytes[float64](len(raw))))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(raw))), n)
}

// trackLive mirrors this arena's held-buffer delta into the process-wide
// workspace gauges (live and peak bytes) and, when tracing is on, the
// "arena bytes" counter timeline of the Chrome trace.
func (a *Arena) trackLive(deltaBytes int64) {
	a.liveBytes += deltaBytes
	metrics.ArenaLiveBytes.Add(float64(deltaBytes))
	live := metrics.ArenaLiveBytes.Value()
	metrics.ArenaPeakBytes.SetMax(live)
	obs.Sample("arena bytes", int64(live))
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{f64: newPool[float64](), f32: newPool[float32]()}
}

// AcquireMat returns a zeroed r×c matrix of T, recycling a released buffer
// of the same shape and element type when one is available.
func AcquireMat[T Elem](a *Arena, r, c int) *Mat[T] {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := poolOf[T](a)
	a.out++
	a.trackLive(elemBytes[T](r * c))
	key := [2]int{r, c}
	if l := p.mats[key]; len(l) > 0 {
		m := l[len(l)-1]
		p.mats[key] = l[:len(l)-1]
		clear(m.Data)
		return m
	}
	a.bytes += elemBytes[T](r * c)
	return NewMat[T](r, c)
}

// ReleaseMat returns m to the shape-keyed free list for reuse.
func ReleaseMat[T Elem](a *Arena, m *Mat[T]) {
	if m == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	p := poolOf[T](a)
	a.out--
	a.trackLive(-elemBytes[T](m.Rows * m.Cols))
	key := [2]int{m.Rows, m.Cols}
	p.mats[key] = append(p.mats[key], m)
}

// AcquireSlice returns a zeroed length-n slice of T, recycling when possible.
func AcquireSlice[T Elem](a *Arena, n int) []T {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := poolOf[T](a)
	a.out++
	a.trackLive(elemBytes[T](n))
	if l := p.slices[n]; len(l) > 0 {
		s := l[len(l)-1]
		p.slices[n] = l[:len(l)-1]
		clear(s)
		return s
	}
	a.bytes += elemBytes[T](n)
	return make([]T, n)
}

// ReleaseSlice returns s to the free list for reuse.
func ReleaseSlice[T Elem](a *Arena, s []T) {
	if s == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	p := poolOf[T](a)
	a.out--
	a.trackLive(-elemBytes[T](len(s)))
	p.slices[len(s)] = append(p.slices[len(s)], s)
}

// Bytes returns the total workspace footprint allocated through the arena.
func (a *Arena) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes
}

// LiveBytes returns the bytes currently held by acquirers of this arena.
func (a *Arena) LiveBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.liveBytes
}

// Live returns the number of buffers currently held by acquirers.
func (a *Arena) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.out
}

// String summarizes the arena for workspace reports.
func (a *Arena) String() string {
	return fmt.Sprintf("arena{%d live buffers, %d KiB}", a.Live(), a.Bytes()/1024)
}
