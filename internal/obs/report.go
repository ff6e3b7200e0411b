package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"

	"agnn/internal/obs/causal"
	"agnn/internal/obs/evlog"
	"agnn/internal/obs/metrics"
)

// Aggregated run-report: the compact JSON summary written by -metrics and
// consumed by cmd/agnn-report. It collapses the recorded run into
// per-span-name statistics (count, total, max, summed integer attributes)
// plus per-track totals, which for distributed runs are the per-rank
// communication bytes and message counts.

// SpanStat aggregates every span sharing one name.
type SpanStat struct {
	Name    string           `json:"name"`
	Count   int64            `json:"count"`
	TotalNs int64            `json:"total_ns"`
	MaxNs   int64            `json:"max_ns"`
	Attrs   map[string]int64 `json:"attrs,omitempty"` // summed over spans
}

// TrackStat aggregates one track (one rank, in distributed runs). Open
// counts spans still in flight at snapshot time: a post-mortem report has
// Open == 0 everywhere, while a live /report snapshot taken mid-superstep
// reports how many regions each rank has entered but not finished — the
// signal that the span stats undercount ongoing work.
type TrackStat struct {
	Track string           `json:"track"`
	Spans int64            `json:"spans"`
	Open  int64            `json:"open,omitempty"`
	Attrs map[string]int64 `json:"attrs,omitempty"` // summed over the track's spans
}

// Report is the aggregated run-report. Metrics carries the live-registry
// snapshot (counters, gauges, histogram quantiles) when the producer had
// one — the CLI attaches metrics.Default at exit, the /report endpoint at
// request time.
type Report struct {
	Spans  []SpanStat  `json:"spans"`
	Tracks []TrackStat `json:"tracks"`
	// CriticalPath is the cross-rank causal reconstruction (present when
	// the recorded run had ranks exchanging messages).
	CriticalPath *CritPath         `json:"critical_path,omitempty"`
	Metrics      *metrics.Snapshot `json:"metrics,omitempty"`
	// DroppedEvents counts what the recorded logs refused at their cap: a
	// report with a non-zero count undercounts the run.
	DroppedEvents int64 `json:"dropped_events,omitempty"`
}

// CritPath is the critical-path summary of a recorded run.
type CritPath = causal.Summary

// BuildReport aggregates the timed records of the process-wide recorded
// run. Span stats are sorted by total time, heaviest first; tracks stay in
// rank order.
func BuildReport() *Report { return buildReport(evlog.Default) }

func buildReport(set *evlog.Set) *Report {
	byName := map[string]*SpanStat{}
	var order []string
	rep := &Report{DroppedEvents: set.Dropped()}
	for _, ln := range lanes(set) {
		ts := TrackStat{Track: ln.name, Open: ln.open}
		for _, r := range ln.recs {
			if !r.Kind.Timed() {
				continue // messages, marks and samples are not spans
			}
			name := r.Name()
			s := byName[name]
			if s == nil {
				s = &SpanStat{Name: name}
				byName[name] = s
				order = append(order, name)
			}
			s.Count++
			s.TotalNs += r.Dur
			s.MaxNs = max(s.MaxNs, r.Dur)
			ts.Spans++
			for k, v := range attrs(r) {
				if s.Attrs == nil {
					s.Attrs = map[string]int64{}
				}
				s.Attrs[k] += v
				if ts.Attrs == nil {
					ts.Attrs = map[string]int64{}
				}
				ts.Attrs[k] += v
			}
		}
		rep.Tracks = append(rep.Tracks, ts)
	}
	for _, n := range order {
		rep.Spans = append(rep.Spans, *byName[n])
	}
	sort.SliceStable(rep.Spans, func(i, j int) bool {
		return rep.Spans[i].TotalNs > rep.Spans[j].TotalNs
	})
	return rep
}

// WriteJSON serializes the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error { return writeFile(path, r.WriteJSON) }

// ReadReport parses a run-report previously written by WriteReportFile.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// ReadReportFile parses the run-report at path.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadReport(f)
}
