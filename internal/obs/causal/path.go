package causal

import (
	"sort"

	"agnn/internal/obs/evlog"
)

// Span is one named interval on a rank's timeline — a timed record other
// than an epoch window — in nanoseconds since the set's epoch.
type Span struct {
	Name string
	T0   int64
	T1   int64
}

// Event is a record the walk steps over: a send, a receive, a checkpoint
// or an epoch window (Seq is then the epoch number). A receive waited from
// T0 to T1 for message Seq of rank Peer.
type Event struct {
	Kind evlog.Kind
	Peer int32
	T0   int64
	T1   int64
	Seq  uint64
	Step int64
}

// Options tunes the critical-path reconstruction.
type Options struct {
	// TopK bounds the contributor list (default 10).
	TopK int
	// BlockedMinNs is the minimum recv wait treated as a blocking
	// dependency edge; shorter waits are charged to the receiver as
	// local time (default 20µs — below that, channel handoff jitter
	// dominates and the "wait" is not actionable).
	BlockedMinNs int64
	// MaxSegments bounds the stored segment list (default 4096); the
	// aggregate totals and contributors always cover the full path.
	MaxSegments int
}

const (
	defaultTopK         = 10
	defaultBlockedMinNs = 20_000
	defaultMaxSegments  = 4096
)

// Segment classes.
const (
	ClassCompute    = "compute"
	ClassCollective = "collective"
	ClassWait       = "wait"
	ClassCheckpoint = "checkpoint"
)

// Segment is one contiguous stretch of the critical path, attributed to
// a single rank, superstep and time class.
type Segment struct {
	Rank    int    `json:"rank"`
	Step    int64  `json:"step"`
	Class   string `json:"class"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Contributor aggregates path time by (rank, class, name); Step is the
// superstep of the largest single segment in the group.
type Contributor struct {
	Rank  int     `json:"rank"`
	Step  int64   `json:"step"`
	Class string  `json:"class"`
	Name  string  `json:"name"`
	Ns    int64   `json:"ns"`
	Pct   float64 `json:"pct"` // share of PathNs
}

// RankWait is one rank's total blocked-recv time inside the analyzed
// windows (on or off the path) and its fraction of the window time.
type RankWait struct {
	Rank      int     `json:"rank"`
	BlockedNs int64   `json:"blocked_ns"`
	Frac      float64 `json:"frac"`
}

// EpochPath summarizes the critical path of one epoch window.
type EpochPath struct {
	Epoch        int64 `json:"epoch"`
	WindowNs     int64 `json:"window_ns"`
	ComputeNs    int64 `json:"compute_ns"`
	CollectiveNs int64 `json:"collective_ns"`
	WaitNs       int64 `json:"wait_ns"`
	CheckpointNs int64 `json:"checkpoint_ns"`
	Hops         int   `json:"hops"` // cross-rank jumps on the path
}

// SummarySchema identifies the Summary JSON layout.
const SummarySchema = "agnn-critpath/v1"

// Summary is the reconstructed cross-rank critical path of a run. The
// walk is time-contiguous inside each analysis window, so PathNs equals
// the summed window lengths and Coverage sits at 1.0 by construction;
// CI uses it as an integrity check on the reconstruction.
type Summary struct {
	Schema        string `json:"schema"`
	Ranks         int    `json:"ranks"`
	WindowStartNs int64  `json:"window_start_ns"`
	WindowEndNs   int64  `json:"window_end_ns"`
	PathNs        int64  `json:"path_ns"`
	// Coverage = PathNs / summed analysis-window time.
	Coverage     float64 `json:"coverage"`
	Hops         int     `json:"hops"`
	ComputeNs    int64   `json:"compute_ns"`
	CollectiveNs int64   `json:"collective_ns"`
	WaitNs       int64   `json:"wait_ns"`
	CheckpointNs int64   `json:"checkpoint_ns"`
	// OverlapHiddenPct is the share of total collective span time that
	// stayed OFF the critical path — communication hidden behind
	// compute on other ranks.
	OverlapHiddenPct  float64       `json:"overlap_hidden_pct"`
	Top               []Contributor `json:"top"`
	PerRankWait       []RankWait    `json:"per_rank_wait"`
	Epochs            []EpochPath   `json:"epochs,omitempty"`
	Segments          []Segment     `json:"segments"`
	SegmentsTruncated bool          `json:"segments_truncated,omitempty"`
	DroppedEvents     int64         `json:"dropped_events,omitempty"`
}

// collectiveSpanNames is the span vocabulary emitted by the dist
// collectives (internal/dist/collectives.go); any path time
// under one of these counts as a collective hop.
var collectiveSpanNames = map[string]bool{
	"barrier": true, "bcast": true, "allgather": true,
	"reduce_scatter": true, "allreduce": true, "reduce": true,
	"gatherv": true, "alltoallv": true,
}

func classify(name string) string {
	switch {
	case collectiveSpanNames[name]:
		return ClassCollective
	case name == "checkpoint":
		return ClassCheckpoint
	default:
		return ClassCompute
	}
}

// msgKey identifies one message across the send and receive logs.
type msgKey struct {
	src int32
	seq uint64
}

// flatIv is one innermost-span interval from the flattened per-rank
// span timeline (non-overlapping, sorted by t0).
type flatIv struct {
	t0, t1 int64
	name   string
}

// analyzer holds the indexed run state shared by the window walks.
type analyzer struct {
	walkEvs map[int][]Event // per rank, epoch windows removed, sorted by T1
	sends   map[msgKey]Event
	flat    map[int][]flatIv
	opt     Options
}

// rawSeg is an unattributed walk segment.
type rawSeg struct {
	rank  int
	step  int64
	class string // ClassWait / ClassCheckpoint, or "" = attribute by spans
	name  string
	a, b  int64
}

// Analyze reconstructs the critical path of the run recorded in s: the
// send, receive, checkpoint and epoch records of every rank's log are the
// walk's events, the timed records other than epochs attribute local time.
// The process log (rank -1) belongs to no rank and is not read. Returns nil
// when no rank recorded a message or a mark.
func Analyze(s *evlog.Set, opt Options) *Summary {
	if opt.TopK <= 0 {
		opt.TopK = defaultTopK
	}
	if opt.BlockedMinNs <= 0 {
		opt.BlockedMinNs = defaultBlockedMinNs
	}
	if opt.MaxSegments <= 0 {
		opt.MaxSegments = defaultMaxSegments
	}
	events := map[int][]Event{}
	spans := map[int][]Span{}
	total := 0
	var dropped int64
	for _, l := range s.Logs() {
		recs := l.Events()
		if l.Rank() < 0 || len(recs) == 0 {
			continue
		}
		r := l.Rank()
		events[r] = nil // a rank that only computed still counts
		dropped += l.Dropped()
		for _, rec := range recs {
			kind, t1 := rec.Kind, rec.T0+rec.Dur
			switch kind {
			case evlog.KindSend, evlog.KindRecv:
				events[r] = append(events[r], Event{Kind: kind, Peer: int32(rec.B),
					T0: rec.T0, T1: t1, Seq: uint64(rec.A), Step: rec.C})
			case evlog.KindEpoch, evlog.KindCheckpoint:
				events[r] = append(events[r], Event{Kind: kind, T0: rec.T0, T1: t1, Seq: uint64(rec.A)})
			}
			if kind.Timed() && kind != evlog.KindEpoch {
				spans[r] = append(spans[r], Span{Name: rec.Name(), T0: rec.T0, T1: t1})
			}
		}
		total += len(events[r])
	}
	if total == 0 {
		return nil
	}

	az := &analyzer{
		walkEvs: make(map[int][]Event, len(events)),
		sends:   make(map[msgKey]Event),
		flat:    make(map[int][]flatIv, len(spans)),
		opt:     opt,
	}
	var epochs []Event
	minT, maxT := int64(1<<62), int64(-1<<62)
	for r, evs := range events {
		keep := evs[:0:0]
		for _, e := range evs {
			if e.T0 < minT {
				minT = e.T0
			}
			if e.T1 > maxT {
				maxT = e.T1
			}
			switch e.Kind {
			case evlog.KindEpoch:
				epochs = append(epochs, e)
				continue
			case evlog.KindSend:
				az.sends[msgKey{int32(r), e.Seq}] = e
			}
			keep = append(keep, e)
		}
		sort.SliceStable(keep, func(i, j int) bool { return keep[i].T1 < keep[j].T1 })
		az.walkEvs[r] = keep
	}
	for r, sp := range spans {
		az.flat[r] = flatten(sp)
	}

	// Analysis windows: the epoch marks when present, else the whole run.
	sort.Slice(epochs, func(i, j int) bool { return epochs[i].T0 < epochs[j].T0 })
	type window struct {
		a, b  int64
		epoch int64
		mark  bool
	}
	var windows []window
	for _, e := range epochs {
		if e.T1 > e.T0 {
			windows = append(windows, window{a: e.T0, b: e.T1, epoch: int64(e.Seq), mark: true})
		}
	}
	if len(windows) == 0 && maxT > minT {
		windows = append(windows, window{a: minT, b: maxT})
	}
	if len(windows) == 0 {
		return nil
	}

	sum := &Summary{Schema: SummarySchema, Ranks: len(events),
		WindowStartNs: windows[0].a, WindowEndNs: windows[len(windows)-1].b}
	var windowNs int64
	contrib := map[Contributor]*Contributor{} // keyed on (rank,class,name) with zeroed Ns/Pct/Step
	maxSeg := map[Contributor]int64{}
	for _, w := range windows {
		segs, hops := az.walk(w.a, w.b)
		windowNs += w.b - w.a
		sum.Hops += hops
		var ep EpochPath
		ep.Epoch = w.epoch
		ep.WindowNs = w.b - w.a
		ep.Hops = hops
		for _, s := range segs {
			d := s.EndNs - s.StartNs
			sum.PathNs += d
			switch s.Class {
			case ClassCompute:
				sum.ComputeNs += d
				ep.ComputeNs += d
			case ClassCollective:
				sum.CollectiveNs += d
				ep.CollectiveNs += d
			case ClassWait:
				sum.WaitNs += d
				ep.WaitNs += d
			case ClassCheckpoint:
				sum.CheckpointNs += d
				ep.CheckpointNs += d
			}
			key := Contributor{Rank: s.Rank, Class: s.Class, Name: s.Name}
			c := contrib[key]
			if c == nil {
				c = &Contributor{Rank: s.Rank, Class: s.Class, Name: s.Name, Step: s.Step}
				contrib[key] = c
			}
			c.Ns += d
			if d > maxSeg[key] {
				maxSeg[key] = d
				c.Step = s.Step
			}
		}
		if w.mark {
			sum.Epochs = append(sum.Epochs, ep)
		}
		if len(sum.Segments) < opt.MaxSegments {
			room := opt.MaxSegments - len(sum.Segments)
			if len(segs) > room {
				segs = segs[:room]
				sum.SegmentsTruncated = true
			}
			sum.Segments = append(sum.Segments, segs...)
		} else {
			sum.SegmentsTruncated = true
		}
	}
	if windowNs > 0 {
		sum.Coverage = float64(sum.PathNs) / float64(windowNs)
	}

	// Top contributors by path time.
	for _, c := range contrib {
		cc := *c
		if sum.PathNs > 0 {
			cc.Pct = 100 * float64(cc.Ns) / float64(sum.PathNs)
		}
		sum.Top = append(sum.Top, cc)
	}
	sort.Slice(sum.Top, func(i, j int) bool {
		if sum.Top[i].Ns != sum.Top[j].Ns {
			return sum.Top[i].Ns > sum.Top[j].Ns
		}
		if sum.Top[i].Rank != sum.Top[j].Rank {
			return sum.Top[i].Rank < sum.Top[j].Rank
		}
		return sum.Top[i].Name < sum.Top[j].Name
	})
	if len(sum.Top) > opt.TopK {
		sum.Top = sum.Top[:opt.TopK]
	}

	// Per-rank blocked time inside the windows, path or not.
	ranks := make([]int, 0, len(events))
	for r := range events {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		var blocked int64
		for _, e := range events[r] {
			if e.Kind != evlog.KindRecv || e.T1-e.T0 < opt.BlockedMinNs {
				continue
			}
			for _, w := range windows {
				a, b := e.T0, e.T1
				if a < w.a {
					a = w.a
				}
				if b > w.b {
					b = w.b
				}
				if b > a {
					blocked += b - a
				}
			}
		}
		rw := RankWait{Rank: r, BlockedNs: blocked}
		if windowNs > 0 {
			rw.Frac = float64(blocked) / float64(windowNs)
		}
		sum.PerRankWait = append(sum.PerRankWait, rw)
	}

	// Overlap effectiveness: how much total collective span time stayed
	// off the path (hidden behind compute on other ranks).
	var collTotal int64
	for _, ivs := range az.flat {
		for _, iv := range ivs {
			if classify(iv.name) != ClassCollective {
				continue
			}
			for _, w := range windows {
				a, b := iv.t0, iv.t1
				if a < w.a {
					a = w.a
				}
				if b > w.b {
					b = w.b
				}
				if b > a {
					collTotal += b - a
				}
			}
		}
	}
	if collTotal > 0 {
		hidden := collTotal - sum.CollectiveNs
		if hidden < 0 {
			hidden = 0
		}
		sum.OverlapHiddenPct = 100 * float64(hidden) / float64(collTotal)
	}
	sum.DroppedEvents = dropped
	return sum
}

// walk runs the backward critical-path walk over one window [ws, we]:
// starting from the rank active last, local time extends backward until
// a blocked receive, which jumps to the sender's rank at its send time.
// The walk is time-contiguous — every instant in the window lands in
// exactly one segment — and the returned segments are in time order.
func (az *analyzer) walk(ws, we int64) ([]Segment, int) {
	rank := az.startRank(ws, we)
	var raw []rawSeg
	hops := 0
	t := we
	for t > ws {
		evs := az.walkEvs[rank]
		// Last event on this rank finishing at or before t, inside the window.
		i := sort.Search(len(evs), func(i int) bool { return evs[i].T1 > t }) - 1
		if i < 0 || evs[i].T1 <= ws {
			raw = append(raw, rawSeg{rank: rank, a: ws, b: t})
			t = ws
			break
		}
		e := evs[i]
		if e.T1 < t {
			// Local time after the event.
			raw = append(raw, rawSeg{rank: rank, step: e.Step, a: e.T1, b: t})
			t = e.T1
			continue
		}
		switch {
		case e.Kind == evlog.KindRecv && e.T1-e.T0 >= az.opt.BlockedMinNs:
			// Blocked receive: the path came from the sender.
			if s, ok := az.sends[msgKey{e.Peer, e.Seq}]; ok && s.T1 < t {
				jt := s.T1
				if jt < ws {
					jt = ws
				}
				raw = append(raw, rawSeg{rank: rank, step: e.Step,
					class: ClassWait, name: "blocked-recv", a: jt, b: t})
				hops++
				rank = int(e.Peer)
				t = jt
				continue
			}
			st := e.T0
			if st < ws {
				st = ws
			}
			if st >= t {
				st = t - 1 // zero-width event: force progress
			}
			raw = append(raw, rawSeg{rank: rank, step: e.Step,
				class: ClassWait, name: "blocked-recv", a: st, b: t})
			t = st
		case e.Kind == evlog.KindCheckpoint:
			nt := e.T0
			if nt < ws {
				nt = ws
			}
			if nt >= t {
				nt = t - 1
			}
			raw = append(raw, rawSeg{rank: rank, step: e.Step,
				class: ClassCheckpoint, name: "checkpoint", a: nt, b: t})
			t = nt
		default:
			// Send, quick recv, or other local event: local time across it.
			nt := e.T0
			if nt < ws {
				nt = ws
			}
			if nt >= t {
				nt = t - 1
			}
			raw = append(raw, rawSeg{rank: rank, step: e.Step, a: nt, b: t})
			t = nt
		}
	}
	// Reverse into time order, clamp the possible -1 overshoot.
	for i, j := 0, len(raw)-1; i < j; i, j = i+1, j-1 {
		raw[i], raw[j] = raw[j], raw[i]
	}
	if len(raw) > 0 && raw[0].a < ws {
		raw[0].a = ws
	}

	var segs []Segment
	for _, rs := range raw {
		if rs.b <= rs.a {
			continue
		}
		if rs.class != "" {
			segs = appendSeg(segs, Segment{Rank: rs.rank, Step: rs.step,
				Class: rs.class, Name: rs.name, StartNs: rs.a, EndNs: rs.b})
			continue
		}
		az.attribute(rs, &segs)
	}
	return segs, hops
}

// startRank picks the rank whose recorded activity reaches latest into
// the window — the rank that finished the window's work.
func (az *analyzer) startRank(ws, we int64) int {
	best, bestT := -1, int64(-1<<62)
	for r, evs := range az.walkEvs {
		i := sort.Search(len(evs), func(i int) bool { return evs[i].T1 > we }) - 1
		if i < 0 || evs[i].T1 <= ws {
			continue
		}
		if evs[i].T1 > bestT || (evs[i].T1 == bestT && r < best) {
			best, bestT = r, evs[i].T1
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// attribute splits a local walk segment by the rank's innermost spans.
func (az *analyzer) attribute(rs rawSeg, segs *[]Segment) {
	ivs := az.flat[rs.rank]
	t := rs.a
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].t1 > rs.a })
	for t < rs.b && i < len(ivs) {
		iv := ivs[i]
		if iv.t0 >= rs.b {
			break
		}
		if iv.t0 > t {
			*segs = appendSeg(*segs, Segment{Rank: rs.rank, Step: rs.step,
				Class: ClassCompute, Name: "(untraced)", StartNs: t, EndNs: iv.t0})
			t = iv.t0
		}
		end := iv.t1
		if end > rs.b {
			end = rs.b
		}
		*segs = appendSeg(*segs, Segment{Rank: rs.rank, Step: rs.step,
			Class: classify(iv.name), Name: iv.name, StartNs: t, EndNs: end})
		t = end
		i++
	}
	if t < rs.b {
		*segs = appendSeg(*segs, Segment{Rank: rs.rank, Step: rs.step,
			Class: ClassCompute, Name: "(untraced)", StartNs: t, EndNs: rs.b})
	}
}

// appendSeg appends s, merging into the previous segment when it
// continues the same (rank, class, name) stretch.
func appendSeg(segs []Segment, s Segment) []Segment {
	if n := len(segs); n > 0 {
		p := &segs[n-1]
		if p.Rank == s.Rank && p.Class == s.Class && p.Name == s.Name && p.EndNs == s.StartNs {
			p.EndNs = s.EndNs
			if s.Step > p.Step {
				p.Step = s.Step
			}
			return segs
		}
	}
	return append(segs, s)
}

// flatten turns a rank's (possibly overlapping, multi-track) span list
// into non-overlapping innermost-span intervals sorted by start time:
// at every instant the latest-started active span wins, matching the
// "innermost wins" attribution of nested spans.
func flatten(spans []Span) []flatIv {
	type boundary struct {
		t     int64
		open  bool
		span  int
		start int64
	}
	var bs []boundary
	for i, s := range spans {
		if s.T1 <= s.T0 {
			continue
		}
		bs = append(bs, boundary{t: s.T0, open: true, span: i, start: s.T0})
		bs = append(bs, boundary{t: s.T1, open: false, span: i, start: s.T0})
	}
	if len(bs) == 0 {
		return nil
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].t != bs[j].t {
			return bs[i].t < bs[j].t
		}
		// Closes before opens at the same instant.
		return !bs[i].open && bs[j].open
	})
	var out []flatIv
	active := map[int]bool{}
	innermost := func() (int, bool) {
		best, bestStart, bestIdx := -1, int64(-1<<62), -1
		for idx := range active {
			s := spans[idx]
			if s.T0 > bestStart || (s.T0 == bestStart && idx > bestIdx) {
				best, bestStart, bestIdx = idx, s.T0, idx
			}
		}
		return best, best >= 0
	}
	prev := bs[0].t
	for _, b := range bs {
		if b.t > prev {
			if idx, ok := innermost(); ok {
				out = append(out, flatIv{t0: prev, t1: b.t, name: spans[idx].Name})
			}
			prev = b.t
		}
		if b.open {
			active[b.span] = true
		} else {
			delete(active, b.span)
		}
	}
	// Merge adjacent same-name intervals.
	merged := out[:0]
	for _, iv := range out {
		if n := len(merged); n > 0 && merged[n-1].name == iv.name && merged[n-1].t1 == iv.t0 {
			merged[n-1].t1 = iv.t1
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}
