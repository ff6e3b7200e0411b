// Package evlog is the one store of timed per-rank events
// (docs/OBSERVABILITY.md): every instrumented site — a compiled-plan op, a
// layer, a collective, a message, a superstep, an epoch or checkpoint mark,
// a rank failure — writes one fixed-size Record into its rank's Log, and
// every artefact (the flight dump, the Chrome trace, the run-report, the
// cross-rank critical path) is a reader of those logs.
//
// A Log is two things filled by the same Record call. The ring is always
// on: a lock-free, fixed-size buffer of the most recent events, written
// with a handful of atomic stores and no allocation, which is what a
// postmortem dump shows. The recorded log is a growable, capped slice that
// is appended to only while the Set is recording (one switch for the whole
// set) and holds nothing otherwise; it is what a trace, a report and the
// critical path are built from. All times count nanoseconds from the
// Set's one epoch.
//
// The package is stdlib-only and imports nothing from the repository.
package evlog

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a record and fixes the meaning of its payload words.
type Kind uint8

// Record kinds. T0/Dur bracket the timed ones; instants have Dur == 0.
const (
	// KindSpan is a timed region with no payload.
	KindSpan Kind = 1 + iota
	// KindOp is one compiled-plan op execution. A = bytes moved (static
	// model), B = flops, C = sparse non-zeros swept.
	KindOp
	// KindLayer is one layer's forward or backward pass. A = layer index,
	// B = 1 for backward.
	KindLayer
	// KindCollective is one collective call. A = bytes this rank sent
	// during it, B = messages.
	KindCollective
	// KindSend is one message departure. A = sender-local sequence number,
	// B = destination rank, C = superstep; the code names the enclosing
	// collective.
	KindSend
	// KindRecv is one message arrival: the receiver blocked from T0 for
	// Dur. A = the sender's sequence number, B = source rank, C = the
	// sender's superstep.
	KindRecv
	// KindSuperstep is one BSP round entered. A = round number, B = wait
	// ns accumulated during the previous superstep.
	KindSuperstep
	// KindStraggler marks a superstep wait beyond the straggler threshold.
	// A = this rank's wait ns, B = median wait ns across ranks, C = round.
	KindStraggler
	// KindEpoch brackets one training epoch or timed benchmark execution
	// (an analysis window of the critical path). A = epoch number.
	KindEpoch
	// KindCheckpoint brackets a blocking checkpoint save.
	KindCheckpoint
	// KindFailure marks a rank failure. A = the rank's last superstep.
	KindFailure
	// KindCounter is an instrument delta worth keeping in the black box.
	// A = delta, B = new value when cheap to compute.
	KindCounter
	// KindSample is one point of a named counter timeline. A = value.
	KindSample
)

// kinds holds, per kind, the name flight dumps print and whether records of
// the kind are intervals a trace draws as spans.
var kinds = [...]struct {
	name  string
	timed bool
}{
	KindSpan: {"span", true}, KindOp: {"span", true}, KindLayer: {"layer", true},
	KindCollective: {"comm", true}, KindSend: {"causal-send", false}, KindRecv: {"causal-recv", false},
	KindSuperstep: {"superstep", false}, KindStraggler: {"straggler", false},
	KindEpoch: {"epoch", true}, KindCheckpoint: {"checkpoint", true}, KindFailure: {"failure", false},
	KindCounter: {"counter", false}, KindSample: {"sample", false},
}

// String names a kind as flight dumps print it.
func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].name != "" {
		return kinds[k].name
	}
	return "unknown"
}

// Timed reports whether records of the kind are intervals a trace draws as
// spans.
func (k Kind) Timed() bool { return int(k) < len(kinds) && kinds[k].timed }

// codes is the process-wide intern table mapping event names to small
// integer codes. Sites intern at wiring time (plan compile, world
// construction); the record path carries only the code.
var codes struct {
	sync.RWMutex
	index map[string]uint32
	names []string
}

// Code interns name and returns its stable code; 0 is reserved for
// "unnamed". Safe for concurrent use.
func Code(name string) uint32 {
	codes.RLock()
	c, ok := codes.index[name]
	codes.RUnlock()
	if ok {
		return c
	}
	codes.Lock()
	defer codes.Unlock()
	if c, ok := codes.index[name]; ok {
		return c
	}
	if codes.index == nil {
		codes.index = map[string]uint32{}
	}
	codes.names = append(codes.names, name)
	codes.index[name] = uint32(len(codes.names)) // 1-based
	return uint32(len(codes.names))
}

// CodeName resolves a code back to its name ("" for 0 or unknown).
func CodeName(c uint32) string {
	codes.RLock()
	defer codes.RUnlock()
	if c == 0 || int(c) > len(codes.names) {
		return ""
	}
	return codes.names[c-1]
}

// Record is one event of a Log.
type Record struct {
	Seq  uint64 // 1-based position among everything the log ever recorded
	T0   int64  // ns since the set's epoch
	Dur  int64  // 0 for instants
	Kind Kind
	Code uint32 // interned name
	A    int64
	B    int64
	C    int64
}

// Name resolves the record's interned name.
func (r Record) Name() string { return CodeName(r.Code) }

// slot is one ring entry. Every field is accessed atomically so concurrent
// record/dump is race-free; seq doubles as the seqlock word — it is zeroed
// before the payload is written and set to the claiming sequence after, so
// a reader that sees the same non-zero seq before and after reading the
// payload knows the slot was stable.
type slot struct {
	seq  atomic.Uint64
	t0   atomic.Int64
	dur  atomic.Int64
	meta atomic.Uint64 // kind<<32 | code
	a    atomic.Int64
	b    atomic.Int64
	c    atomic.Int64
}

// MaxRecorded bounds one log's recorded events; past it new events still
// reach the ring and are counted as dropped.
const MaxRecorded = 1 << 20

// firstRecorded is the recorded log's first allocation: short runs and the
// alloc-regression tests never grow past it.
const firstRecorded = 4096

// Log is one rank's event log. Obtain logs from a Set. A nil *Log is
// inert: Record on it is a no-op, so handles can be threaded through paths
// that have none.
type Log struct {
	set  *Set
	rank int

	next  atomic.Uint64
	slots []slot
	open  atomic.Int64 // spans started and not yet ended

	mu      sync.Mutex
	rec     []Record
	dropped int64
}

// Rank returns the log's rank (-1 for the process log).
func (l *Log) Rank() int {
	if l == nil {
		return -1
	}
	return l.rank
}

// Now returns nanoseconds since the epoch of the log's set.
func (l *Log) Now() int64 { return l.set.Now() }

// Recording reports whether the log's set is recording.
func (l *Log) Recording() bool { return l != nil && l.set.recording.Load() }

// Record writes one event: into the ring always — overwriting the oldest
// entry once full, a handful of atomic stores, no allocation, no lock — and
// onto the recorded log while the set is recording.
func (l *Log) Record(k Kind, code uint32, t0, dur, a, b, c int64) {
	if l == nil {
		return
	}
	seq := l.next.Add(1)
	s := &l.slots[(seq-1)%uint64(len(l.slots))]
	s.seq.Store(0) // invalidate while the payload is torn
	s.t0.Store(t0)
	s.dur.Store(dur)
	s.meta.Store(uint64(k)<<32 | uint64(code))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.seq.Store(seq)
	if !l.set.recording.Load() {
		return
	}
	l.mu.Lock()
	if len(l.rec) >= MaxRecorded {
		l.dropped++
	} else {
		if l.rec == nil {
			l.rec = make([]Record, 0, firstRecorded)
		}
		l.rec = append(l.rec, Record{Seq: seq, T0: t0, Dur: dur, Kind: k, Code: code, A: a, B: b, C: c})
	}
	l.mu.Unlock()
}

// Span is an in-flight timed region of a log. The zero value is inert: End
// on it does nothing, which is what a nil log hands out.
type Span struct {
	log  *Log
	t0   int64
	kind Kind
	code uint32
}

// Start begins a payload-free span. The name is interned on every call — a
// map load under a read lock — which suits step-sized regions; sites on hot
// paths intern once and use Begin.
func (l *Log) Start(name string) Span { return l.Begin(KindSpan, Code(name)) }

// Begin begins a timed record of the given kind and interned name.
func (l *Log) Begin(k Kind, code uint32) Span {
	if l == nil {
		return Span{}
	}
	l.open.Add(1)
	return Span{log: l, t0: l.set.Now(), kind: k, code: code}
}

// End completes the span with a zero payload.
func (s Span) End() { s.EndWith(0, 0, 0) }

// EndWith completes the span, writing its one record with the kind's
// payload words.
func (s Span) EndWith(a, b, c int64) {
	if s.log == nil {
		return
	}
	s.log.Record(s.kind, s.code, s.t0, s.log.set.Now()-s.t0, a, b, c)
	s.log.open.Add(-1)
}

// Open returns the number of spans started on the log and not yet ended.
func (l *Log) Open() int64 {
	if l == nil {
		return 0
	}
	return l.open.Load()
}

// Recorded returns the number of events ever written to the log; the ring
// holds the most recent min(Recorded, ring size) of them.
func (l *Log) Recorded() uint64 {
	if l == nil {
		return 0
	}
	return l.next.Load()
}

// Dropped returns how many events the recorded log refused at its cap.
func (l *Log) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns a copy of the recorded log, in record order.
func (l *Log) Events() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.rec...)
}

// Ring decodes the ring's current contents, oldest first. Slots being
// concurrently overwritten are skipped (the seqlock re-check), so a read
// taken mid-flight is consistent if momentarily incomplete.
func (l *Log) Ring() []Record {
	if l == nil {
		return nil
	}
	out := make([]Record, 0, len(l.slots))
	for i := range l.slots {
		s := &l.slots[i]
		seq := s.seq.Load()
		if seq == 0 {
			continue
		}
		r := Record{Seq: seq, T0: s.t0.Load(), Dur: s.dur.Load(),
			A: s.a.Load(), B: s.b.Load(), C: s.c.Load()}
		meta := s.meta.Load()
		if s.seq.Load() != seq {
			continue // torn: overwritten while reading
		}
		r.Kind, r.Code = Kind(meta>>32), uint32(meta)
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Set owns the logs of one process: one epoch, one ring size, one
// recording switch.
type Set struct {
	epoch     time.Time
	size      int
	recording atomic.Bool

	mu   sync.Mutex
	logs map[int]*Log
}

// DefaultRingSize is the per-log ring capacity of the Default set: large
// enough to hold several supersteps of plan-op events per rank, small
// enough that a 64-rank world stays under ten MiB.
const DefaultRingSize = 2048

// NewSet creates a set whose rings hold size events each and whose clock
// starts now.
func NewSet(size int) *Set {
	if size < 1 {
		panic("evlog: ring size must be >= 1")
	}
	return &Set{epoch: time.Now(), size: size, logs: make(map[int]*Log)}
}

// Default is the process-wide set every subsystem records into.
var Default = NewSet(DefaultRingSize)

// Now returns nanoseconds since the set's epoch (monotonic).
func (s *Set) Now() int64 { return int64(time.Since(s.epoch)) }

// Log returns one rank's log, creating it on first use; rank -1 is the
// process log, for events no rank owns. It takes the set's lock: sites
// resolve their log once, at wiring time.
func (s *Set) Log(rank int) *Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.logs[rank]
	if !ok {
		l = &Log{set: s, rank: rank, slots: make([]slot, s.size)}
		s.logs[rank] = l
	}
	return l
}

// Logs returns every log of the set in rank order (the process log first).
func (s *Set) Logs() []*Log {
	s.mu.Lock()
	logs := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.Unlock()
	sort.Slice(logs, func(i, j int) bool { return logs[i].rank < logs[j].rank })
	return logs
}

// StartRecording empties every recorded log and switches recording on.
func (s *Set) StartRecording() {
	for _, l := range s.Logs() {
		l.mu.Lock()
		l.rec, l.dropped = nil, 0
		l.mu.Unlock()
	}
	s.recording.Store(true)
}

// StopRecording switches recording off. What was recorded stays readable
// until the next StartRecording.
func (s *Set) StopRecording() { s.recording.Store(false) }

// Recording reports whether the set is recording.
func (s *Set) Recording() bool { return s.recording.Load() }

// Dropped sums, over the set's logs, the events the recorded logs refused
// at their cap.
func (s *Set) Dropped() int64 {
	var n int64
	for _, l := range s.Logs() {
		n += l.Dropped()
	}
	return n
}
