// Package obs is the instrumentation surface of the repository
// (docs/OBSERVABILITY.md). There is one store — a per-rank event log
// (internal/obs/evlog: an always-on ring plus a log that fills while a run
// is recorded) — and one instrument per site: a compiled-plan op, a layer,
// a collective, a message, a superstep, an epoch or checkpoint mark each
// make one call that advances the site's aggregates in the metrics registry
// and writes the site's one record (sites.go). Everything a run leaves
// behind is a reader of those logs: the flight dump of the rings
// (internal/obs/flight), the Chrome trace (chrome.go), the run-report
// (report.go) and the cross-rank critical path (internal/obs/causal,
// critical.go).
//
// Sites resolve their log once, where they resolve their metric handles —
// plan compile, world construction, a model's first step — so recording an
// event never looks anything up. A site created on a goroutine bound to a
// rank's log (internal/dist binds every rank goroutine) belongs to that
// rank; any other belongs to the process log, "main". Bare Start calls in
// the direct kernels resolve the binding per span and are inert unless a
// run is being recorded.
//
// Record a run with
//
//	obs.StartRecording()
//	...
//	obs.StopRecording()
//	obs.WriteChromeTraceFile("trace.json")
//
// or, in the CLI binaries, with the shared -trace/-metrics flags (see CLI).
package obs

import (
	"runtime"
	"sync"
	"sync/atomic"

	"agnn/internal/obs/evlog"
)

// Log is one rank's event log.
type Log = evlog.Log

// Span is an in-flight timed region of a Log.
type Span = evlog.Span

// The record kinds sites outside this package write directly.
const (
	KindEpoch      = evlog.KindEpoch
	KindCheckpoint = evlog.KindCheckpoint
	KindCounter    = evlog.KindCounter
)

// Code interns an event name; sites do it once, at wiring time.
func Code(name string) uint32 { return evlog.Code(name) }

// Now returns nanoseconds since the process-wide epoch every record is
// timed against.
func Now() int64 { return evlog.Default.Now() }

// Rank returns the process-wide log of one rank.
func Rank(r int) *Log { return evlog.Default.Log(r) }

// Main returns the process log, for events no rank owns.
func Main() *Log { return mainLog }

var mainLog = evlog.Default.Log(-1)

// StartRecording empties the recorded logs and switches recording on: from
// here every record also lands on its rank's recorded log, which is what
// the Chrome trace, the run-report and the critical path read.
func StartRecording() { evlog.Default.StartRecording() }

// StopRecording switches recording off; the recorded run stays readable
// until the next StartRecording.
func StopRecording() { evlog.Default.StopRecording() }

// Recording reports whether a run is being recorded.
func Recording() bool { return evlog.Default.Recording() }

// byGID maps a goroutine id to the log bound to it; bound counts the
// entries, so a process that runs no ranks never asks for a goroutine id.
var (
	byGID sync.Map
	bound atomic.Int64
)

// Bind makes l the current goroutine's log: sites created on it (Current)
// and bare Start calls made from it belong to l. internal/dist binds each
// rank goroutine to its rank's log. Pair every Bind with an Unbind.
func Bind(l *Log) {
	byGID.Store(gid(), l)
	bound.Add(1)
}

// Unbind removes the current goroutine's binding.
func Unbind() {
	byGID.Delete(gid())
	bound.Add(-1)
}

// Current resolves the calling goroutine's log (Main when unbound). With
// ranks bound it parses the goroutine id out of a stack header — microseconds,
// more on a deep stack: call it where a site is wired, not where it fires.
func Current() *Log {
	if bound.Load() > 0 {
		if l, ok := byGID.Load(gid()); ok {
			return l.(*Log)
		}
	}
	return Main()
}

// Start begins a span on the calling goroutine's log — the instrument of
// the direct kernels, which have no wiring step to resolve a log in. It is
// inert (one atomic load, no allocation) unless a run is being recorded.
func Start(name string) Span {
	if !Recording() {
		return Span{}
	}
	return Current().Start(name)
}

// Sample appends one point to the named counter timeline of a recorded run
// (the "C" events of the Chrome trace); a no-op (one atomic load) otherwise.
func Sample(name string, val int64) {
	if Recording() {
		Main().Record(evlog.KindSample, Code(name), Now(), 0, val, 0, 0)
	}
}

// gid returns the current goroutine id, parsed from the runtime stack
// header ("goroutine N [status]:").
func gid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for i := len("goroutine "); i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
