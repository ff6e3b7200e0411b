package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"agnn/internal/obs/causal"
	"agnn/internal/obs/evlog"
)

// Chrome trace-event export: the JSON object format understood by
// chrome://tracing and https://ui.perfetto.dev. Every timeline of the
// recorded logs becomes a thread (tid) of a single process; timed records
// are "X" (complete) events with microsecond timestamps relative to the
// logs' epoch, and a collective's payload words become event args.

// chromeEvent is one entry of the traceEvents array: a metadata ("M") event
// naming the process or a thread (string args, no timestamp), a span, a flow
// endpoint or a counter point (integer args).
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Ts   *float64 `json:"ts,omitempty"`
	Dur  *float64 `json:"dur,omitempty"`
	Cat  string   `json:"cat,omitempty"` // flow events: binding category
	ID   string   `json:"id,omitempty"`  // flow events: shared pair id
	BP   string   `json:"bp,omitempty"`  // flow end: "e" binds enclosing slice
	Args any      `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// lane is one timeline of a recorded run: one log's records — a trace
// thread, a report track.
type lane struct {
	name string
	rank int
	open int64
	recs []evlog.Record
}

// lanes splits the set's recorded logs into timelines, the process log
// ("main") first and always, then in rank order every rank that recorded
// anything or has a span in flight: "rank N".
func lanes(set *evlog.Set) []lane {
	out := []lane{{name: "main", rank: -1}}
	for _, l := range set.Logs() {
		recs := l.Events()
		if l.Rank() < 0 {
			out[0].open, out[0].recs = l.Open(), recs
			continue
		}
		if len(recs) > 0 || l.Open() > 0 {
			out = append(out, lane{name: fmt.Sprintf("rank %d", l.Rank()), rank: l.Rank(), open: l.Open(), recs: recs})
		}
	}
	return out
}

// attrs names the payload words a timed record shows as span arguments:
// the bytes and messages of a collective call.
func attrs(r evlog.Record) map[string]int64 {
	if r.Kind != evlog.KindCollective {
		return nil
	}
	return map[string]int64{"bytes": r.A, "msgs": r.B}
}

// WriteChromeTrace serializes the recorded run of the process-wide logs as
// Chrome trace-event JSON. Safe to call while recording continues.
func WriteChromeTrace(w io.Writer) error { return writeChromeTrace(w, evlog.Default) }

func writeChromeTrace(w io.Writer, set *evlog.Set) error {
	us := func(ns int64) *float64 { v := float64(ns) / 1e3; return &v }
	named := func(name string) map[string]string { return map[string]string{"name": name} }
	events := []chromeEvent{{Name: "process_name", Ph: "M", Args: named("agnn")}}
	// Counter timelines (Sample) become "C" events, which Perfetto renders
	// as per-process value graphs — the memory and communication timelines
	// drawn alongside the span tracks. They follow the tracks, one series
	// after another in order of first appearance.
	var series []uint32
	samples := map[uint32][]chromeEvent{}
	for tid, ln := range lanes(set) {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Tid: tid, Args: named(ln.name)})
		first := len(events)
		for _, r := range ln.recs {
			kind := r.Kind
			switch {
			case kind.Timed():
				e := chromeEvent{Name: r.Name(), Ph: "X", Tid: tid, Ts: us(r.T0), Dur: us(r.Dur)}
				if a := attrs(r); a != nil {
					e.Args = a
				}
				events = append(events, e)
			case kind == evlog.KindSend || kind == evlog.KindRecv && r.A != 0:
				// Causal message edge: an "s"/"f" pair sharing (cat, id)
				// renders as an arrow from the sender's track at departure to
				// the receiver's at arrival, named after the enclosing
				// collective.
				fe := chromeEvent{Name: r.Name(), Ph: "s", Cat: "msg", Tid: tid, Ts: us(r.T0)}
				hdr := causal.Header{Src: int32(ln.rank), Seq: uint64(r.A)}
				if kind == evlog.KindRecv {
					fe.Ph, fe.BP, fe.Ts = "f", "e", us(r.T0+r.Dur)
					hdr.Src = int32(r.B)
				}
				if fe.Name == "" {
					fe.Name = "msg"
				}
				fe.ID = "0x" + strconv.FormatUint(hdr.FlowID(), 16)
				events = append(events, fe)
			case kind == evlog.KindSample:
				if _, ok := samples[r.Code]; !ok {
					series = append(series, r.Code)
				}
				samples[r.Code] = append(samples[r.Code], chromeEvent{Name: r.Name(), Ph: "C",
					Ts: us(r.T0), Args: map[string]int64{"value": r.A}})
			}
		}
		track := events[first:]
		sort.SliceStable(track, func(i, j int) bool { return *track[i].Ts < *track[j].Ts })
	}
	for _, code := range series {
		events = append(events, samples[code]...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTraceFile writes the Chrome trace to path.
func WriteChromeTraceFile(path string) error { return writeFile(path, WriteChromeTrace) }

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
