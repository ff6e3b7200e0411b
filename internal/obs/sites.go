package obs

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"agnn/internal/obs/evlog"
	"agnn/internal/obs/flight"
	"agnn/internal/obs/metrics"
)

// One instrument per site. Each type below is what one kind of site holds:
// built once where the site is wired, with its log and metric handles
// resolved, and fired with one call that advances the aggregates and writes
// the site's one record. Firing takes atomic operations only — no lookup,
// no lock (outside a recorded run), no allocation.

// Op is the instrument of one compiled-plan op: the latency histogram and
// roofline counters of its op class, its static cost, and the log of the
// rank that compiled it.
type Op struct {
	log    *Log
	code   uint32
	lat    *metrics.Histogram
	runs   *metrics.Counter
	flopsC *metrics.Counter
	bytesC *metrics.Counter

	Flops int64 // estimated flops per execution (Section 6 op counts)
	Bytes int64 // estimated bytes moved per execution (static traffic model)
	NNZ   int64 // sparse non-zeros swept per execution
}

// NewOp wires the instrument of a plan op named span, of op class class, on
// log.
func NewOp(log *Log, span, class string, flops, bytes, nnz int64) Op {
	return Op{
		log:    log,
		code:   Code(span),
		lat:    metrics.PlanOpSeconds.With(class),
		runs:   metrics.PlanOpsTotal.With(class),
		flopsC: metrics.OpFlopsTotal.With(class),
		bytesC: metrics.OpBytesTotal.With(class),
		Flops:  flops, Bytes: bytes, NNZ: nnz,
	}
}

// Done credits one execution that began at t0 and ends now.
func (o *Op) Done(t0 int64) {
	ns := Now() - t0
	o.lat.Observe(float64(ns) / 1e9)
	o.runs.Inc()
	o.flopsC.Add(o.Flops)
	o.bytesC.Add(o.Bytes)
	metrics.PlanFlopsTotal.Add(o.Flops)
	metrics.PlanBytesTotal.Add(o.Bytes)
	metrics.PlanNNZTotal.Add(o.NNZ)
	o.log.Record(evlog.KindOp, o.code, t0, ns, o.Bytes, o.Flops, o.NNZ)
}

// Layer is the instrument of one layer of a model: the totals the -profile
// table prints, and the "layerN.forward(kind)" / "layerN.backward(kind)"
// records a trace shows around the layer's plan ops.
type Layer struct {
	log      *Log
	fwd, bwd uint32
	index    int64

	fwdNs, bwdNs, calls atomic.Int64
}

// NewLayer wires the instrument of layer index, of the given kind, on log.
func NewLayer(log *Log, index int, kind string) *Layer {
	return &Layer{
		log:   log,
		fwd:   Code(fmt.Sprintf("layer%d.forward(%s)", index, kind)),
		bwd:   Code(fmt.Sprintf("layer%d.backward(%s)", index, kind)),
		index: int64(index),
	}
}

// Forward credits a forward pass that began at t0.
func (l *Layer) Forward(t0 int64) {
	ns := l.log.Now() - t0
	l.fwdNs.Add(ns)
	l.calls.Add(1)
	l.log.Record(evlog.KindLayer, l.fwd, t0, ns, l.index, 0, 0)
}

// Backward credits a backward pass that began at t0.
func (l *Layer) Backward(t0 int64) {
	ns := l.log.Now() - t0
	l.bwdNs.Add(ns)
	l.log.Record(evlog.KindLayer, l.bwd, t0, ns, l.index, 1, 0)
}

// Totals returns the accumulated forward and backward time and the number
// of forward passes.
func (l *Layer) Totals() (forward, backward time.Duration, calls int) {
	return time.Duration(l.fwdNs.Load()), time.Duration(l.bwdNs.Load()), int(l.calls.Load())
}

// Collective is the instrument of one collective kind on one rank: the
// per-call byte histogram and the record a trace draws as a span carrying
// the bytes and messages the call moved.
type Collective struct {
	log   *Log
	kind  evlog.Kind
	code  uint32
	bytes *metrics.Histogram
}

// Code returns the interned name messages sent inside the collective are
// stamped with.
func (c *Collective) Code() uint32 { return c.code }

// Done credits one call that began at t0 and sent bytes in msgs messages.
func (c *Collective) Done(t0, bytes, msgs int64) {
	c.bytes.Observe(float64(bytes))
	c.log.Record(c.kind, c.code, t0, c.log.Now()-t0, bytes, msgs, 0)
}

// RankSites is one rank's log with the instruments of the sites the
// distributed runtime emits from: collectives, messages, supersteps,
// stragglers and the rank's failure.
type RankSites struct {
	Log *Log

	wait  *metrics.Histogram
	strag *metrics.Counter
}

var (
	codeSuperstep = Code("superstep")
	codeStraggler = Code("straggler-wait")
	codeEpoch     = Code("epoch")
)

// SitesFor wires the instruments of one rank on its process-wide log.
func SitesFor(rank int) RankSites {
	r := strconv.Itoa(rank)
	return RankSites{
		Log:   Rank(rank),
		wait:  metrics.RankWaitSeconds.With(r),
		strag: metrics.StragglersTotal.With(r),
	}
}

// Collective wires the instrument of the collective kind name. Its calls
// land in the agnn_collective_bytes histogram under that name.
func (r *RankSites) Collective(name string) Collective {
	return Collective{log: r.Log, kind: evlog.KindCollective, code: Code(name),
		bytes: metrics.CollectiveBytes.With(name)}
}

// Superstep closes a BSP round in which the rank waited waitNs on receives.
func (r *RankSites) Superstep(round, waitNs int64) {
	r.wait.Observe(float64(waitNs) / 1e9)
	r.Log.Record(evlog.KindSuperstep, codeSuperstep, r.Log.Now(), 0, round, waitNs, 0)
}

// Straggler flags the round: the rank waited waitNs against a cross-rank
// median of medianNs.
func (r *RankSites) Straggler(waitNs, medianNs, round int64) {
	r.strag.Inc()
	r.Log.Record(evlog.KindStraggler, codeStraggler, r.Log.Now(), 0, waitNs, medianNs, round)
}

// Sent records one message departure — sequence number seq, to rank dst, in
// superstep step, inside the collective named by code — on a recorded run.
// Messages come by the thousand per superstep and would evict everything
// else from the always-on ring, so outside a recorded run they leave
// nothing.
func (r *RankSites) Sent(code uint32, seq uint64, dst int, step int64) {
	if r.Log.Recording() {
		r.Log.Record(evlog.KindSend, code, r.Log.Now(), 0, int64(seq), int64(dst), step)
	}
}

// Received records, on a recorded run, the arrival of message seq of rank
// src after the receiver blocked for waitedNs.
func (r *RankSites) Received(code uint32, waitedNs int64, seq uint64, src int32, step int64) {
	if r.Log.Recording() {
		r.Log.Record(evlog.KindRecv, code, r.Log.Now()-waitedNs, waitedNs, int64(seq), int64(src), step)
	}
}

// RankFailed marks rank failed at superstep lastRound: the failure counter,
// the failure record on its log and — when a dump directory is configured —
// the flight dump naming the rank, the superstep and the cause.
func RankFailed(rank int, lastRound int64, cause error) {
	metrics.RankFailuresTotal.Inc()
	flight.OnRankFailure(rank, lastRound, cause)
}

// TrainEpoch closes training epoch n, begun at t0 on l: the epoch-seconds
// histogram and the epoch record, which is also an analysis window of the
// critical path. It returns the epoch's wall time in seconds.
func TrainEpoch(l *Log, n int, t0 int64) float64 {
	ns := l.Now() - t0
	metrics.EpochSeconds.Observe(float64(ns) / 1e9)
	l.Record(evlog.KindEpoch, codeEpoch, t0, ns, int64(n), 0, 0)
	return float64(ns) / 1e9
}

// The flight dump's knobs, for the binaries: where dumps land, the signal
// that asks for one, and the dump a clean shutdown — or a run that stops
// itself — leaves.
var (
	SetDumpDir   = flight.SetDumpDir
	NotifySignal = flight.NotifySignal
	OnShutdown   = flight.OnShutdown
	OnStop       = flight.OnStop
)
