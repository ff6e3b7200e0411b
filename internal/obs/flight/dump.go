// Package flight is the postmortem reader of the per-rank event logs
// (internal/obs/evlog; docs/OBSERVABILITY.md): it serializes the logs'
// always-on rings — the last few thousand plan ops, supersteps, collective
// calls, straggler detections and counter deltas of every rank — to a JSON
// dump when something goes wrong (a rank failure, a SIGQUIT poke, a clean
// shutdown, or a /debug/flight request on the diagnostics server). It owns
// the dump's format and where dumps land; the one record it writes is the
// failure mark of OnRankFailure.
package flight

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"agnn/internal/obs/evlog"
)

// Dump is the JSON artifact written when the black box is cracked open:
// one header naming why (and, for failures, which rank died at which
// superstep) plus every lane's recent events. LastSuperstep is the failed
// rank's own superstep when it ran in the dumping process; a survivor in
// another process names the superstep it reached itself, which in BSP
// lockstep is the failed rank's or one next to it.
type Dump struct {
	Schema        string     `json:"schema"` // "agnn-flight/v1"
	Reason        string     `json:"reason"` // "rank-failure" | "signal" | "request" | "shutdown" | "non-finite-loss" | "manual"
	CapturedAt    time.Time  `json:"captured_at"`
	GoVersion     string     `json:"go_version"`
	FailedRank    *int       `json:"failed_rank,omitempty"`
	LastSuperstep *int64     `json:"last_superstep,omitempty"`
	Cause         string     `json:"cause,omitempty"`
	Lanes         []LaneDump `json:"lanes"`
}

// LaneDump is one rank's ring in a Dump. Recorded counts everything the
// rank ever logged; Recorded - len(Events) of it has been overwritten.
type LaneDump struct {
	Rank     int     `json:"rank"` // -1 = process log
	Recorded uint64  `json:"recorded"`
	Events   []Event `json:"events"`
}

// Event is one decoded ring entry, ordered by Seq within its lane. A/B/C
// depend on Kind: span (duration ns, bytes, flops), layer (duration ns,
// index, 1 if backward), comm (bytes, messages, duration ns), causal-send
// (sequence number, destination, superstep), causal-recv (sequence number,
// source, blocked ns), superstep (round, wait ns), straggler (wait ns,
// median ns, round), epoch (duration ns, number), checkpoint (duration ns),
// failure (last superstep), counter (delta, value), sample (value).
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"t_ns"` // ns since the set's epoch, at the event's end
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	A      int64  `json:"a"`
	B      int64  `json:"b,omitempty"`
	C      int64  `json:"c,omitempty"`
}

// DumpSchema identifies the flight-dump JSON layout.
const DumpSchema = "agnn-flight/v1"

// event renders one ring record. The dump has no duration field, so the
// timed kinds carry theirs in a payload word.
func event(r evlog.Record) Event {
	ev := Event{Seq: r.Seq, TimeNs: r.T0 + r.Dur, Kind: r.Kind.String(), Name: r.Name(),
		A: r.A, B: r.B, C: r.C}
	switch r.Kind {
	case evlog.KindSpan, evlog.KindOp, evlog.KindLayer, evlog.KindEpoch, evlog.KindCheckpoint:
		ev.A, ev.B, ev.C = r.Dur, r.A, r.B
	case evlog.KindCollective, evlog.KindRecv:
		ev.C = r.Dur
	}
	return ev
}

// Capture snapshots the ring of every log in the set that has recorded
// anything. reason is recorded in the header verbatim.
func Capture(s *evlog.Set, reason string) *Dump {
	d := &Dump{
		Schema:     DumpSchema,
		Reason:     reason,
		CapturedAt: time.Now().UTC(),
		GoVersion:  runtime.Version(),
		Lanes:      []LaneDump{},
	}
	for _, l := range s.Logs() {
		if l.Recorded() == 0 {
			continue
		}
		ring := l.Ring()
		lane := LaneDump{Rank: l.Rank(), Recorded: l.Recorded(), Events: make([]Event, len(ring))}
		for i, r := range ring {
			lane.Events[i] = event(r)
		}
		d.Lanes = append(d.Lanes, lane)
	}
	return d
}

// dumpDir is where failure/signal dumps land; empty disables file output.
// Process-wide because the failure unwind in internal/dist has no natural
// place to thread configuration through.
var dumpDir atomic.Pointer[string]

func init() {
	if dir := os.Getenv("AGNN_FLIGHT_DIR"); dir != "" {
		dumpDir.Store(&dir)
	}
}

// SetDumpDir directs failure and signal dumps to dir ("" disables file
// output). The AGNN_FLIGHT_DIR environment variable provides the initial
// value. Returns the previous directory.
func SetDumpDir(dir string) string {
	var prev string
	if p := dumpDir.Swap(&dir); p != nil {
		prev = *p
	}
	return prev
}

// DumpDir returns the currently configured dump directory ("" when file
// output is disabled).
func DumpDir() string {
	if p := dumpDir.Load(); p != nil {
		return *p
	}
	return ""
}

// WriteFile serializes the dump into dir with a reason- and time-stamped
// name, returning the written path. The directory is created if needed.
func (d *Dump) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("flight-%s-%s.json", d.Reason, d.CapturedAt.Format("20060102T150405.000000000"))
	path := filepath.Join(dir, name)
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// OnRankFailure is the rank-failure site: it leaves a failure record on the
// rank's log in the Default set and, when a dump directory is configured,
// writes a postmortem dump naming the failed rank, its last superstep, and
// the cause. Called on the ErrRankFailed unwind; allocation on this path is
// fine — the run is already dead. Returns the dump path ("" when file
// output is disabled).
func OnRankFailure(rank int, lastSuperstep int64, cause error) string {
	l := evlog.Default.Log(rank)
	l.Record(evlog.KindFailure, 0, l.Now(), 0, lastSuperstep, 0, 0)
	dir := DumpDir()
	if dir == "" {
		return ""
	}
	d := Capture(evlog.Default, "rank-failure")
	d.FailedRank = &rank
	d.LastSuperstep = &lastSuperstep
	if cause != nil {
		d.Cause = cause.Error()
	}
	path, err := d.WriteFile(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flight: failed to write rank-failure dump: %v\n", err)
		return ""
	}
	fmt.Fprintf(os.Stderr, "flight: rank %d failed at superstep %d; dump written to %s\n", rank, lastSuperstep, path)
	return path
}

// OnShutdown writes a clean-shutdown dump of the Default set to the
// configured dump directory, mirroring the rank-failure path so graceful
// exits leave the same postmortem artifact a crash would. No-op (returns
// "") when no dump directory is configured. Callers provide once-only
// semantics (obs/serve's final-snapshot flush, agnn-serve's shutdown).
func OnShutdown() string { return OnStop("shutdown", nil) }

// OnStop is OnShutdown for a run that stops itself for a reason of its own —
// "non-finite-loss" when training meets a NaN or infinite loss — with the
// error that stopped it as the dump's cause.
func OnStop(reason string, cause error) string {
	dir := DumpDir()
	if dir == "" {
		return ""
	}
	d := Capture(evlog.Default, reason)
	if cause != nil {
		d.Cause = cause.Error()
	}
	path, err := d.WriteFile(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flight: failed to write %s dump: %v\n", reason, err)
		return ""
	}
	return path
}

// Handler serves the set's current rings as a Dump with reason "request" —
// mounted at /debug/flight by internal/obs/serve.
func Handler(s *evlog.Set) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(Capture(s, "request")) //nolint:errcheck // client gone mid-write is fine
	})
}

var signalOnce sync.Once

// NotifySignal arranges for sig (conventionally SIGQUIT) to write a dump
// of the Default set to the configured dump directory (stderr when none is
// configured). The process keeps running — the signal is a diagnostic
// poke, not a kill. Installed at most once per process.
func NotifySignal(sig os.Signal) {
	signalOnce.Do(func() { go watchSignal(sig) })
}
