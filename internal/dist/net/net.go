// Package net is the wire-transport seam of the distributed runtime: the
// point at which "ranks exchanging message payloads" stops being an
// abstraction and becomes either goroutines over buffered channels (the
// simulated world every test and benchmark runs on) or OS processes over
// TCP/Unix-domain sockets (the deployable world the paper's Piz Daint runs
// assume).
//
// internal/dist builds its World on an Endpoint — one rank's connection to
// the world — and everything above the endpoint (collectives, counters,
// fault broadcast, causal stamping, straggler diagnostics) is transport-
// agnostic. The two implementations:
//
//   - ChanWorld (chan.go): the in-process world. All p endpoints share one
//     mailbox matrix of buffered channels; Abort poisons the matrix so
//     blocked senders unwind instead of queueing into a dead world.
//     Identical semantics and performance to the pre-seam runtime.
//
//   - TCPEndpoint (tcp.go): one OS process per rank. Frames are
//     length-prefixed binary (payload words + the causal Header), the
//     bootstrap is a rank-0 rendezvous with bounded dial retry, and
//     liveness is heartbeat-based: a silent peer past the timeout is
//     declared failed, which internal/dist turns into its usual
//     ErrRankFailed broadcast.
//
// The interface is deliberately channel-shaped on the receive side
// (Inbox returns a Go channel): the dist runtime's failure detection is a
// select over {message, world-failure, deadline}, and keeping the inbox a
// channel lets that select survive the transport swap unchanged.
package net

import (
	"errors"

	"agnn/internal/obs/causal"
)

// Message is one point-to-point transfer: the payload words (float64, or
// the packed float32 pairs of an f32 grid plan's copies — the transport does
// not care) plus the causal header stamped by the sender.
//
// Data is borrowed, never handed over: Send reads the sender's words during
// the call only, and an arrival's Data is a buffer of the process's wire
// pool. The receiver hands it back with Recycle once it has copied or
// reduced it, or keeps it and says so with Keep, so that the pool stops
// counting it.
type Message struct {
	Data []float64
	Hdr  causal.Header
}

// ErrWorldDown reports that the world has been poisoned by a rank failure:
// the send was refused because no rank should queue messages into a dead
// world. The dist runtime maps it to its survivor-unwind path.
var ErrWorldDown = errors.New("net: world down")

// FailureHandler is invoked by a transport when it detects that a peer
// rank has failed (heartbeat silence, connection loss without a clean
// goodbye, or an explicit failure broadcast from the peer). Handlers must
// be safe for concurrent use; the transport may call them from reader or
// monitor goroutines.
type FailureHandler func(rank int, cause error)

// Endpoint is one rank's connection to a p-rank world.
//
// Send delivers a message to a peer; it returns ErrWorldDown once the
// world is poisoned and a transport error when the peer is unreachable
// (both are terminal for the calling rank). Inbox returns the FIFO
// arrival channel for messages from one peer; the same channel is
// returned on every call, so callers may cache it. Abort announces this
// rank's failure to every peer (idempotent, best-effort), and Goodbye
// announces a clean departure so peers do not mistake the closing
// connection for a crash.
type Endpoint interface {
	// Size returns the world size p.
	Size() int
	// Rank returns the local rank in [0, p).
	Rank() int
	// Send transfers m to peer rank `to`. It borrows m.Data for the call
	// only — the channel world copies the words into a pooled buffer, TCP
	// encodes them into a pooled frame — so the caller may overwrite them
	// as soon as Send returns.
	Send(to int, m Message) error
	// Inbox returns the arrival channel for messages from peer `from`.
	// Messages from one peer are delivered in send order, exactly once.
	Inbox(from int) <-chan Message
	// Recycle hands the Data of a message taken from an inbox back to the
	// process's wire pool once the caller has copied or reduced it, so a
	// later arrival or frame of its size, on any endpoint, can use the same
	// storage; the caller must not touch it afterwards.
	Recycle(data []float64)
	// Keep takes the Data of a message taken from an inbox out of the wire
	// pool's count: the caller keeps it, and the pool never sees it again.
	// Every arrival's Data goes to Recycle or to Keep.
	Keep(data []float64)
	// Abort broadcasts that failedRank is down — this rank itself, or a
	// relay of a failure detected locally — and poisons the endpoint so
	// blocked sends unwind. Idempotent.
	Abort(failedRank int, cause error)
	// Goodbye announces a clean departure (normal completion) so peers
	// treat the subsequent connection teardown as benign. Idempotent.
	Goodbye()
	// SetFailureHandler installs the callback for detected peer failures.
	// Must be called before the endpoint is used for traffic.
	SetFailureHandler(h FailureHandler)
	// Close releases the endpoint's resources. After Close, Send fails
	// and inbox channels stop receiving.
	Close() error
}
