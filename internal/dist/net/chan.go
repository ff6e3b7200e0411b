package net

import (
	"fmt"
	"sync"
)

// DefaultMailboxCap bounds in-flight messages per (sender, receiver) pair.
// Ring collectives keep at most a couple of messages in flight; the slack
// covers pipelined point-to-point phases.
const DefaultMailboxCap = 1024

// ChanWorld is the in-process transport: all p ranks live in one process
// and exchange messages over a shared matrix of buffered channels, each
// payload copied into a buffer of the process's wire pool, which the
// receiver hands back. It is the implementation every test, benchmark and
// -race run exercises.
type ChanWorld struct {
	p    int
	box  [][]chan Message // box[to][from]
	down chan struct{}    // closed on the first Abort: world poisoned
	once sync.Once
}

// NewChanWorld creates the shared mailbox matrix of a p-rank world.
func NewChanWorld(p int) (*ChanWorld, error) {
	if p < 1 {
		return nil, fmt.Errorf("net: world size %d, want >= 1", p)
	}
	w := &ChanWorld{p: p, down: make(chan struct{})}
	w.box = make([][]chan Message, p)
	for to := 0; to < p; to++ {
		w.box[to] = make([]chan Message, p)
		for from := 0; from < p; from++ {
			w.box[to][from] = make(chan Message, DefaultMailboxCap)
		}
	}
	return w, nil
}

// Endpoint returns rank's endpoint. All endpoints share the matrix; the
// world is fully connected by construction, so there is no bootstrap.
func (w *ChanWorld) Endpoint(rank int) Endpoint {
	return &chanEndpoint{w: w, rank: rank}
}

// poison marks the world dead: every sender blocked on a full mailbox (or
// arriving later) unwinds with ErrWorldDown instead of queueing into a
// world no rank will drain.
func (w *ChanWorld) poison() { w.once.Do(func() { close(w.down) }) }

type chanEndpoint struct {
	w    *ChanWorld
	rank int
	hmu  sync.Mutex
	h    FailureHandler // unused by the in-process world, kept for symmetry
}

func (e *chanEndpoint) Size() int { return e.w.p }
func (e *chanEndpoint) Rank() int { return e.rank }

// Send copies the borrowed words into a pooled payload buffer, the one copy
// a payload makes between the two ranks' buffers.
func (e *chanEndpoint) Send(to int, m Message) error {
	data := wire.payload(len(m.Data))
	copy(data, m.Data)
	m.Data = data
	select {
	case e.w.box[to][e.rank] <- m:
		return nil
	case <-e.w.down:
		return ErrWorldDown
	}
}

func (e *chanEndpoint) Inbox(from int) <-chan Message { return e.w.box[e.rank][from] }

func (e *chanEndpoint) Recycle(data []float64) { wire.put(data) }

func (e *chanEndpoint) Keep(data []float64) { wire.forget(data) }

// Abort poisons the shared matrix. The dist runtime performs its own
// failure broadcast (the closed failCh every blocked receive selects on);
// the transport's job is only to unblock senders.
func (e *chanEndpoint) Abort(failedRank int, cause error) { e.w.poison() }

// Goodbye is a no-op: in-process ranks share a lifetime, so there is no
// connection teardown to disambiguate.
func (e *chanEndpoint) Goodbye() {}

func (e *chanEndpoint) SetFailureHandler(h FailureHandler) {
	e.hmu.Lock()
	e.h = h
	e.hmu.Unlock()
}

func (e *chanEndpoint) Close() error { return nil }
