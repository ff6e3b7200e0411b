package dist

import (
	"fmt"
	"sync/atomic"

	"agnn/internal/obs"
	"agnn/internal/obs/metrics"
)

// Chunked (asynchronous) allgather: the communication half of compute/
// communication overlap. Instead of blocking until the whole ring has
// circulated, AllgatherChunks returns immediately with the rank's own chunk
// available and streams the remaining chunks over a channel as each ring
// hop completes, so the engine can run arrival-gated plan fragments (see
// fuse.Partition) while the collective is still in flight. Volume, message
// and round accounting is identical to the blocking Allgather — one round
// and one chunk-sized message per ring hop — but attributed per chunk, so
// the BSP counters and the per-collective byte histogram expose the
// pipelined structure instead of one opaque call.

// Chunk announces that a contiguous word range of the gather output has
// landed and may be read.
type Chunk struct {
	Step int // arrival step: 0 = rank-resident chunk, t = t-th ring hop
	Src  int // group rank that contributed the range
	Lo   int // word offsets into Out(), half-open [Lo, Hi)
	Hi   int
}

// ChunkedGather is an in-flight chunked allgather. Out is the full
// concatenation buffer; a range of it is safe to read only after the
// corresponding Chunk has been received from Chunks. The channel is closed
// when the collective completes; callers must drain it before issuing any
// other collective on the same communicator (the ring shares the rank's
// mailboxes). Under fault injection the injector may permute notification
// order (the data behind every announced range is always in place), and a
// rank failure mid-ring closes the channel early with Err() set — consumers
// must check Err after the channel closes.
type ChunkedGather struct {
	out []float64
	ch  chan Chunk
	err atomic.Pointer[error]
}

// Chunks returns the arrival stream: exactly Size() chunks (own chunk
// first), then close — fewer if the ring aborted (see Err).
func (cg *ChunkedGather) Chunks() <-chan Chunk { return cg.ch }

// Out returns the gather output buffer (concatenation in group-rank order).
func (cg *ChunkedGather) Out() []float64 { return cg.out }

// Err reports why the gather terminated early (wrapping ErrRankFailed), or
// nil after a complete gather. Meaningful once Chunks is closed.
func (cg *ChunkedGather) Err() error {
	if p := cg.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Wait drains any undelivered chunks and returns the completed output —
// the blocking-Allgather view of a chunked gather. The error is non-nil
// when a rank failure aborted the ring before completion.
func (cg *ChunkedGather) Wait() ([]float64, error) {
	for range cg.ch {
	}
	return cg.out, cg.Err()
}

// AllgatherChunks starts a chunked ring allgather. lens[r] is the word
// count contributed by group rank r (the SPMD-agreed layout — unlike
// Allgather there is no length-exchange ring, so the caller supplies it);
// data is this rank's contribution of length lens[Rank()]. Layout
// mismatches are reported as errors — under fault injection a runtime
// must not turn a caller bug into a process abort.
//
// The ring runs on a helper goroutine: Send/Recv, counters and metrics are
// all safe under the concurrent rank compute the caller is expected to do.
// Arrival order for rank me is deterministic: me, me-1, me-2, … (mod size),
// one chunk per ring hop — the order fuse.Partition's arrival schedule
// mirrors — unless a reorder fault swaps adjacent notifications. If a rank
// fails mid-ring (its own abort or a world-wide failure broadcast), the
// helper recovers the unwind, records it on the gather, and closes the
// stream so the consumer unblocks with Err() != nil.
func (c *Comm) AllgatherChunks(data []float64, lens []int) (*ChunkedGather, error) {
	g := c.Size()
	if len(lens) != g {
		return nil, fmt.Errorf("dist: AllgatherChunks lens has %d entries for group size %d", len(lens), g)
	}
	if len(data) != lens[c.me] {
		return nil, fmt.Errorf("dist: AllgatherChunks rank %d contributes %d words, lens says %d", c.me, len(data), lens[c.me])
	}
	bounds := make([]int, g+1)
	for i, l := range lens {
		bounds[i+1] = bounds[i] + l
	}
	cg := &ChunkedGather{
		out: make([]float64, bounds[g]),
		// Buffered for every chunk: the ring never blocks on a slow
		// consumer, so communication progresses at full speed even when the
		// engine is deep in a compute fragment.
		ch: make(chan Chunk, g),
	}
	copy(cg.out[bounds[c.me]:bounds[c.me+1]], data)
	cg.ch <- Chunk{Step: 0, Src: c.me, Lo: bounds[c.me], Hi: bounds[c.me+1]}
	if g == 1 {
		close(cg.ch)
		return cg, nil
	}

	right := (c.me + 1) % g
	left := (c.me - 1 + g) % g
	inj := c.w.opts.Faults
	go func() {
		defer close(cg.ch)
		defer func() {
			if rec := recover(); rec != nil {
				rf, ok := rec.(rankFailure)
				if !ok {
					panic(rec) // genuine bug: re-raise
				}
				cg.err.Store(&rf.err)
			}
		}()
		// The helper runs concurrently with rank compute: it must not touch
		// the rank-owned curColl, so the ring's messages carry the hop
		// kind's code explicitly and neither call stacks one.
		hopCode := c.tel.coll[collGatherHop].Code()
		whole := collCall{kind: collGatherChunks, t0: obs.Now(), before: c.Counters()}
		var held *Chunk // reorder fault: notification held back one hop
		for t := 0; t < g-1; t++ {
			sendIdx := (c.me - t + g) % g
			recvIdx := (c.me - 1 - t + 2*g) % g
			c.round()
			t0 := obs.Now()
			c.sendCoded(right, cg.out[bounds[sendIdx]:bounds[sendIdx+1]], hopCode)
			chunk := c.recvCoded(left, hopCode)
			copy(cg.out[bounds[recvIdx]:bounds[recvIdx+1]], chunk)
			c.tel.coll[collGatherHop].Done(t0, int64(8*len(chunk)), 1, int64(recvIdx)+1)
			c.recycle(chunk)
			note := Chunk{Step: t + 1, Src: recvIdx, Lo: bounds[recvIdx], Hi: bounds[recvIdx+1]}
			switch {
			case held != nil:
				// Deliver the newer chunk first, then the held-back one —
				// the injected out-of-order arrival.
				cg.ch <- note
				cg.ch <- *held
				held = nil
			case inj != nil && t+1 < g-1 && inj.ReorderChunk(c.global):
				metrics.FaultsInjectedTotal.With("reorder").Inc()
				h := note
				held = &h
			default:
				cg.ch <- note
			}
		}
		if held != nil {
			cg.ch <- *held
		}
		c.endCall(whole)
	}()
	return cg, nil
}
