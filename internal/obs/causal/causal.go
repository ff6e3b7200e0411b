// Package causal stitches the per-rank event logs (internal/obs/evlog) of
// a distributed run into one BSP dependency DAG and walks it for the
// critical path (docs/OBSERVABILITY.md, "Critical path").
//
// Every dist.Comm send carries a Header — the sender's global rank, a
// sender-local sequence number and the superstep. The headers travel by
// value inside the runtime's channel messages and wire frames; the send
// and receive records a recorded run leaves on each rank's log name their
// message by (rank, sequence number), which is what Analyze joins on.
package causal

// Header is the causal stamp carried by every runtime message. It is a
// small value type: embedding it in the channel message adds no
// allocations and no indirection.
type Header struct {
	Src  int32  // sender's global rank
	Seq  uint64 // sender-local message sequence number (1-based)
	Step int64  // sender's superstep at send time
}

// FlowID packs (Src, Seq) into the identifier shared by the Chrome
// trace flow-event pair ("s" on the sender track, "f" on the receiver
// track) for this message.
func (h Header) FlowID() uint64 {
	return uint64(uint32(h.Src))<<40 | (h.Seq & (1<<40 - 1))
}
