package net

import "sync"

// recycleKeep bounds a recycler's free list. SPMD traffic repeats the same
// message sizes every step, so the list settles at the step's working set —
// the buffers in flight at once — long before the bound; the bound only
// stops traffic of ever-new sizes from growing it forever. A TCP frame is in
// flight until the peer's ACK, which comes once the peer has released
// ackEveryBytes of the stream (or at its next heartbeat), so a rank's frames
// in flight are about ackEveryBytes per peer plus the frames on the wire.
// The bound is the replay queue's own.
const recycleKeep = maxPendingFrames

// recycler is a free list of buffers matched by exact capacity: a payload or
// a frame of n elements is served by a buffer an earlier one of n elements
// handed back, so after the first step every get is a hit and no word moved
// costs an allocation. Safe for concurrent use; the zero value is empty.
type recycler[T any] struct {
	mu   sync.Mutex
	free [][]T // oldest first
}

// get returns a buffer of length n whose contents are unspecified (nil for
// n = 0). A nil recycler allocates.
func (r *recycler[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	if r != nil {
		r.mu.Lock()
		for i := len(r.free) - 1; i >= 0; i-- {
			if b := r.free[i]; cap(b) == n {
				last := len(r.free) - 1
				copy(r.free[i:], r.free[i+1:])
				r.free[last] = nil
				r.free = r.free[:last]
				r.mu.Unlock()
				return b[:n]
			}
		}
		r.mu.Unlock()
	}
	return make([]T, n)
}

// put hands b back for a later get; the caller must not touch it afterwards.
// Past recycleKeep buffers the oldest is dropped.
func (r *recycler[T]) put(b []T) {
	if r == nil || cap(b) == 0 {
		return
	}
	r.mu.Lock()
	if len(r.free) == recycleKeep {
		copy(r.free, r.free[1:])
		r.free = r.free[:recycleKeep-1]
	}
	r.free = append(r.free, b)
	r.mu.Unlock()
}
