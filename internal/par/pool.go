package par

import (
	"sync"
	"sync/atomic"
)

// The persistent worker pool. Every parallel helper (Range, RangeWeighted,
// RangeCuts, Do) dispatches its chunks here instead of spawning goroutines:
// tasks travel by value over one shared buffered channel, long-lived workers
// drain it, and completion is signalled on a per-call channel recycled
// through a sync.Pool. The caller always executes its first chunk inline and
// then *helps*: while waiting for its outstanding chunks it pulls queued
// tasks off the shared channel and runs them itself. Helping makes the
// scheme deadlock-free under nesting (a task blocked waiting for sub-tasks
// will execute them itself if every pool worker is busy) and keeps the
// caller's core hot instead of parked.

// task is one dispatched chunk. It is sent by value — no allocation.
type task struct {
	fn             func(worker, lo, hi int)
	worker, lo, hi int
	done           chan struct{}
}

// taskQueueCap bounds queued-but-unclaimed chunks; submissions beyond it
// run inline on the caller, so the channel send never blocks.
const taskQueueCap = 4096

var (
	taskCh = make(chan task, taskQueueCap)

	poolMu   sync.Mutex
	poolSize atomic.Int32
)

// grow ensures at least n pool workers exist. Workers are goroutines that
// live for the rest of the process; they park on the channel receive when
// idle, which costs nothing. The fast path is one atomic load.
func grow(n int) {
	if int(poolSize.Load()) >= n {
		return
	}
	poolMu.Lock()
	for have := int(poolSize.Load()); have < n; have++ {
		go worker()
		poolSize.Store(int32(have + 1))
	}
	poolMu.Unlock()
}

func worker() {
	for t := range taskCh {
		t.fn(t.worker, t.lo, t.hi)
		t.done <- struct{}{}
	}
}

// doneCap is the buffer of pooled completion channels. It must cover the
// largest possible number of outstanding chunks per call (Workers()); calls
// needing more get a fresh channel that is not returned to the pool.
const doneCap = 1024

var donePool = sync.Pool{New: func() any { return make(chan struct{}, doneCap) }}

func getDone(need int) chan struct{} {
	if need > doneCap {
		return make(chan struct{}, need)
	}
	return donePool.Get().(chan struct{})
}

func putDone(ch chan struct{}) {
	if cap(ch) == doneCap {
		donePool.Put(ch)
	}
}

// runEven executes fn over [0, n) in contiguous chunks of the given size:
// chunk 0 inline on the caller, the rest on the pool.
func runEven(n, chunk int, fn func(worker, lo, hi int)) {
	grow(Workers() - 1)
	done := getDone(n / chunk)
	pending := 0
	worker := 1
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		select {
		case taskCh <- task{fn: fn, worker: worker, lo: lo, hi: hi, done: done}:
			pending++
		default:
			fn(worker, lo, hi)
		}
		worker++
	}
	first := chunk
	if first > n {
		first = n
	}
	fn(0, 0, first)
	wait(done, pending)
	putDone(done)
}

// runBounds is runEven over explicit chunk boundaries (bounds[0] = 0,
// bounds[len-1] = n), as produced by the weighted scheduler.
func runBounds(bounds []int, fn func(worker, lo, hi int)) {
	grow(Workers() - 1)
	done := getDone(len(bounds) - 2)
	pending := 0
	for i := 1; i < len(bounds)-1; i++ {
		select {
		case taskCh <- task{fn: fn, worker: i, lo: bounds[i], hi: bounds[i+1], done: done}:
			pending++
		default:
			fn(i, bounds[i], bounds[i+1])
		}
	}
	fn(0, bounds[0], bounds[1])
	wait(done, pending)
	putDone(done)
}

// wait blocks until pending completions arrive, executing queued tasks
// (its own or other callers') while it waits.
func wait(done chan struct{}, pending int) {
	for pending > 0 {
		select {
		case <-done:
			pending--
		case t := <-taskCh:
			t.fn(t.worker, t.lo, t.hi)
			t.done <- struct{}{}
		}
	}
}
