package fuse

import (
	"cmp"
	"math"
	"slices"
	"unsafe"

	"agnn/internal/tensor"
)

// Workspace planning. A plan's part of a step is a list of positions: the
// forward ops, the widening of its output to float64, then — training — the
// seed (Backward loading the output cotangent), the backward ops and the
// widening of its input cotangent. Every buffer compile plans for a step —
// node values, cotangents, the chain cotangents on the pattern, a softmax's
// row statistics, the fused VJP's ρ, a grid softmax's row exchange, and a
// casting plan's narrowed inputs and widened results — is live from the first
// position that touches it to the last one.
//
// A Step runs an ordered list of plans — a model's layers, or one plan alone —
// and numbers their positions on one timeline: every plan's forward part in
// order, then, training, every plan's backward part in reverse order. Its
// buffers, of every plan and at every element width, are placed greedily at
// offsets into one slab of raw float64 words from the arena: buffers whose
// intervals do not overlap share storage, and so do the parts of a large
// buffer's range that several smaller ones live in while it is dead. Every
// matrix header or slice field a buffer has views its range of the slab at
// the buffer's own width (tensor.View).
//
// Four rules keep every result what a plan with a buffer per node computes:
//   - a cotangent accumulated into (+=) is cleared at the start of its own
//     interval — in the seed's one parallel sweep when nothing else placed
//     over its range is live between the seed and its first writer,
//     otherwise just before that writer;
//   - a buffer lives from the first position touching it to the last, a
//     forward value the backward reads included: it dies at its last
//     reader, so a Backward reads the values of the Forward just before it
//     (Plan.Backward, Model.Backward). Only what the step hands its caller —
//     the last plan's output and the values of its cut's outs, the first
//     plan's input cotangent, and the float64 copies of both — stays live to
//     the end of its plan's part, so nothing the step writes after it shares
//     its storage while the caller may read it. Where a step hands one
//     plan's result to the next, and the next plan's input cotangent back,
//     the value lives on to the last position that reads it there
//     (Step.Set);
//   - a casting plan's float64 copy — of its output, of its input cotangent —
//     is placed over its narrower source only where the widen is the
//     source's last reader (overlay): the source lies on the first half of
//     the copy's range, and the widen runs top-down (spread), reading every
//     source word before writing over it. A training plan's output, which
//     σ's VJP reads later, a prefix plan's, handed on typed with its cut's
//     outs, and a result handed typed to the next plan of the step keep
//     words of their own. The same overlay places σ's Z̄ on the Ḣ a linked
//     float64 plan hands in by reference where σ's VJP, Z̄'s one writer,
//     is Ḣ's last reader: it reads each word of Ḣ before it writes Z̄'s
//     (opSigmaVJP);
//   - what persists between steps — values bound from the caller, parameters
//     and their gradients, A's values at the plan's width or in Aᵀ's order —
//     is not planned here at all.
//
// The intervals are the compiled plans'; the sizes are their patterns'. A
// plan compiled or bound to another pattern (Plan.Bind) makes its step lay
// its buffers out again before the next position runs; the slab keeps its
// storage unless it has outgrown it. Nothing has storage before its step is
// laid out, so a model's plans are all compiled before any of them holds a
// word of it.

// span is a planned buffer as the step sees it, whatever its element width.
type span struct {
	name        string
	plan        *Plan
	size        func() int // its bytes under the pattern the plan is bound to
	bytes       int
	first, last int  // the positions of its plan touching it, the first and the last (first < 0: none yet)
	zero        bool // accumulated into: cleared at the start of its interval
	from, to    int  // its interval on the step's timeline
	off         int  // its first word in the step's slab (-1: it has no bytes)
	// An overlaid pair (overlay): on the float64 copy, the source lying on
	// its first words; on the source, the copy. (Of a σ pair, Z̄ is the
	// copy and Ḣ the source.) Nil otherwise.
	inner, outer *span

	attach func(raw []float64) // views raw — its range of the slab, nil when it has none
	fill   func(skip int)      // writes NaN over it past its first skip words (poisonDead)
}

// live reports whether b is live at step position i.
func (b *span) live(i int) bool { return b.from <= i && i <= b.to }

// words is b's length in the slab: its bytes, rounded up to float64 words.
func (b *span) words() int { return (b.bytes + 7) / 8 }

// shares reports whether b and o are placed over a common word of the slab.
func (b *span) shares(o *span) bool {
	return b.off >= 0 && o.off >= 0 && b.off < o.off+o.words() && o.off < b.off+b.words()
}

// buffer is a planned buffer of element type T and its views.
type buffer[T elem] struct {
	span
	mats  []*tensor.Mat[T] // headers viewing it
	views []*[]T           // slice fields viewing it
	data  []T              // its storage, once its step is laid out
}

// newBuffer returns a buffer of plan p of words elements of T (under the
// bound pattern), listed among p's spans.
func newBuffer[T elem](p *Plan, name string, words func() int) *buffer[T] {
	var z T
	width := int(unsafe.Sizeof(z))
	b := &buffer[T]{span: span{name: name, plan: p, first: -1, off: -1}}
	b.size = func() int { return width * words() }
	b.attach = func(raw []float64) {
		b.data = tensor.View[T](raw, b.bytes/width)
		for _, m := range b.mats {
			if m.Cols > 0 {
				m.Rows = len(b.data) / m.Cols
			}
			m.Data = b.data
		}
		for _, v := range b.views {
			*v = b.data
		}
	}
	b.fill = func(skip int) {
		nan := T(math.NaN())
		tail := b.data[min(skip*8/width, len(b.data)):]
		for q := range tail {
			tail[q] = nan
		}
	}
	p.spans = append(p.spans, &b.span)
	return b
}

// mat returns a new r×c header that will view b.
func (b *buffer[T]) mat(r, c int) *tensor.Mat[T] {
	m := &tensor.Mat[T]{Rows: r, Cols: c}
	b.mats = append(b.mats, m)
	return m
}

// view makes *dst a view of b once b has storage.
func (b *buffer[T]) view(dst *[]T) { b.views = append(b.views, dst) }

// layout is a plan's planned buffers of its own width.
type layout[T elem] struct {
	p    *Plan
	bufs []*buffer[T]
	at   map[int]*zeroSweep[T] // the clears placed before each position, kept from one layout to the next
}

func (l *layout[T]) add(name string, words func() int) *buffer[T] {
	b := newBuffer[T](l.p, name, words)
	l.bufs = append(l.bufs, b)
	return b
}

// touch marks the buffers (nil ones skipped) live at position i of their
// plan. Positions are touched in increasing order.
func touch[T elem](i int, bufs ...*buffer[T]) {
	for _, b := range bufs {
		if b == nil {
			continue
		}
		if b.first < 0 {
			b.first = i
		}
		b.last = i
	}
}

// close ends every interval of p's buffers at the positions touching it: a
// buffer lives from the first of them to the last. An accumulated buffer no
// op touched is cleared at the seed; any other untouched one is live for the
// whole of the plan's part.
func (p *Plan) close(seed, end int) {
	for _, b := range p.spans {
		switch {
		case b.first < 0 && b.zero:
			b.first, b.last = seed, seed
		case b.first < 0:
			b.first, b.last = 0, end
		}
	}
}

// clears places the clear of every accumulated buffer of the plan: into
// atSeed, the seed's one parallel sweep, when nothing else placed over its
// range is live between the seed and its first writer (its interval then
// starts at the seed), else into the sweep it returns for its first position.
func (l *layout[T]) clears(s *Step, atSeed *zeroSweep[T]) map[int]*zeroSweep[T] {
	if l.at == nil {
		l.at = make(map[int]*zeroSweep[T])
	}
	at := l.at
	clear(at)
	seed := l.p.bo
	for _, b := range l.bufs {
		if !b.zero {
			continue
		}
		if !slices.ContainsFunc(s.spans, func(o *span) bool {
			return o != &b.span && o.shares(&b.span) && o.from < b.from && o.to >= seed
		}) {
			b.from = seed
			atSeed.add(b.data)
			continue
		}
		if at[b.first] == nil {
			at[b.first] = &zeroSweep[T]{}
		}
		at[b.first].add(b.data)
	}
	return at
}

// held is storage a plan or a step keeps across steps: the slab, or a buffer
// outside it (A's values at the plan's width or in Aᵀ's order, a grid plan's
// staging words). A layout that needs more than it holds replaces it.
type held[T elem] struct{ buf []T }

// get returns the first n words of the storage, grown from ws if it is
// shorter. What it returns keeps the contents it had unless it was grown.
func (h *held[T]) get(ws *tensor.Arena, n int) []T {
	if len(h.buf) < n {
		tensor.ReleaseSlice(ws, h.buf)
		h.buf = tensor.AcquireSlice[T](ws, n)
	}
	return h.buf[:n:n]
}

func (h *held[T]) release(ws *tensor.Arena) {
	tensor.ReleaseSlice(ws, h.buf)
	h.buf = nil
}

// prologue makes the op at position i of plan p run what has to precede it:
// the clears z placed there, and under poisonDead the poisoning of every
// buffer of the step not live there.
func prologue[T elem](p *Plan, op *planOp, i int, z *zeroSweep[T]) {
	run := op.run
	switch s, at := p.step, p.at(i); {
	case p.poison:
		op.run = func() {
			s.poisonAt(at)
			if z != nil {
				z.run()
			}
			run()
		}
	case z != nil:
		op.run = func() {
			z.run()
			run()
		}
	}
}

// Test hooks (export_test.go), never set outside tests. poisonDead makes
// compile mark its plan so that its step gives every buffer words of its own
// and fills each buffer not live at a position with NaN before the
// position's op runs: an op that touches a buffer outside its planned
// interval then computes with NaN. keepLifetimes makes each step keep its
// buffers' lifetimes (Step.lifetimes).
var poisonDead, keepLifetimes bool

// Step is the workspace of one model step: an ordered list of plans, their
// positions on one timeline, and the slab every buffer of every plan is
// placed in. A plan compiled alone is a step of one plan, which takes and
// hands back float64 matrices; Set makes a step of the plans of a model's
// layers. A plan belongs to one step at a time.
type Step struct {
	plans  []*Plan
	linked []bool // linked[k]: plans[k] hands its result straight to plans[k+1]
	in64   bool   // the first plan is handed a float64 input
	wide   bool   // every crossing of a casting plan is planned at float64
	stale  bool   // to be laid out again before its next position runs

	ws    *tensor.Arena
	spans []*span
	words int           // the slab's length
	slab  held[float64] // its storage, at least words long

	// Kept from one layout to the next, so that laying out again allocates
	// nothing the previous layout had.
	order, near []*span
	covered     [][2]int

	lifetimes []lifetime // the planned buffers, kept for tests (keepLifetimes)
}

// alone makes a step of p by itself: the step of a plan used alone.
func alone(p *Plan) {
	p.step = &Step{plans: []*Plan{p}, in64: true, wide: true, stale: true, ws: p.ws}
}

// Set makes the step run plans, in order — the forward parts in this order,
// the backward parts in the reverse one. linked[k] reports that plans[k]
// hands its result straight to plans[k+1] and takes its input cotangent back
// from it, as consecutive layers of a model do: at the width they share, the
// one plan's output buffer is the other's input, and its interval runs to the
// last position of the other that reads it; the input cotangent, to the last
// of the one that reads it. Between plans that are not linked (a layer
// without a plan in between) each crossing is a float64 matrix, which lives
// to the last position of either plan that reads it. in64 reports that the
// first plan is handed a float64 input. Each plan leaves the step it was in.
// A step Set to what it already runs does nothing; otherwise it is laid out
// before its next position runs.
func (s *Step) Set(plans []*Plan, linked []bool, in64 bool) {
	if !s.stale && s.in64 == in64 && slices.Equal(s.plans, plans) && slices.Equal(s.linked, linked) {
		return
	}
	for _, p := range s.plans {
		if !slices.Contains(plans, p) {
			alone(p)
		}
	}
	for _, p := range plans {
		if p.step != s {
			p.step.drop(p)
			p.step = s
		}
	}
	s.plans = append(s.plans[:0], plans...)
	s.linked = append(s.linked[:0], linked...)
	s.in64, s.stale = in64, true
	if len(plans) > 0 {
		s.ws = plans[0].ws
	}
}

// drop takes p out of the step. The layout stays valid for the plans left
// (the step's owner lays it out again when it next Sets it); a step left with
// none returns its storage.
func (s *Step) drop(p *Plan) {
	i := slices.Index(s.plans, p)
	if i < 0 {
		return
	}
	s.plans = slices.Delete(s.plans, i, i+1)
	s.linked = make([]bool, max(len(s.plans)-1, 0)) // no longer known: float64 crossings
	s.spans = slices.DeleteFunc(s.spans, func(b *span) bool { return b.plan == p })
	if len(s.plans) == 0 {
		s.release()
	}
}

// release returns the slab to the arena.
func (s *Step) release() {
	s.slab.release(s.ws)
	s.words, s.stale = 0, true
}

// ready lays the step out if anything changed since it last was.
func (s *Step) ready() {
	if s.stale {
		s.layout()
	}
}

// widen makes the step plan every crossing of its casting plans at float64:
// what a caller handing each plan float64 matrices (Plan.Forward, Backward)
// needs. Between the forward and the backward parts of a step that did not
// plan them that would lay the forward's values out anew, so it panics there.
func (s *Step) widen(p *Plan, back bool) {
	if !p.cast || s.wide {
		return
	}
	if back && !s.stale {
		panic("fuse: plan " + p.Name + ": a float64 Backward in a step whose Forward handed on typed matrices")
	}
	s.wide, s.stale = true, true
}

// layout numbers the plans' positions, sizes every buffer, extends the
// hand-offs between linked plans, places the buffers in the slab, gives it
// storage and has every plan build its op bodies over it.
func (s *Step) layout() {
	s.stale = false
	last, pos := len(s.plans)-1, 0
	for k, p := range s.plans {
		// A crossing is typed where a casting plan is linked to another at
		// its width; anything else crossing into or out of one is float64.
		typedIn := k > 0 && s.linked[k-1] && s.plans[k-1].cast
		typedOut := k < last && s.linked[k] && s.plans[k+1].cast
		firstIn := k == 0 && s.in64
		p.wideIn = p.cast && (s.wide || firstIn || k > 0 && !typedIn)
		p.wideOut = p.cast && (s.wide || !typedOut)
		p.wideGin = p.cast && p.train && (s.wide || !typedIn)
		p.fo, pos = pos, pos+p.nf
	}
	for k := last; k >= 0; k-- { // an inference plan has no backward part
		p := s.plans[k]
		p.bo, pos = pos, pos+p.nb
	}
	s.spans = s.spans[:0]
	for _, p := range s.plans {
		p.ranForward = false
		for _, b := range p.spans {
			b.bytes = b.size()
			b.from, b.to = p.at(b.first), p.at(b.last)
			s.spans = append(s.spans, b)
		}
	}
	// What the step hands its caller lives to the end of its plan's part.
	first, lp := s.plans[0], s.plans[last]
	for _, b := range lp.outs {
		extend(b, lp.end())
	}
	extend(lp.outF, lp.end())
	extend(first.gin, first.end())
	extend(first.ginF, first.end())
	for k := 0; k < last; k++ {
		a, b, direct := s.plans[k], s.plans[k+1], s.linked[k]
		reach := 0
		for _, in := range b.in {
			reach = max(reach, in.to)
		}
		if !a.cast || direct && b.cast {
			extend(a.out, reach)
		}
		if a.wideOut {
			extend(a.outF, reach)
		}
		if a.og != nil { // a training plan
			if !b.cast || direct && a.cast {
				extend(b.gin, a.og.to)
			}
			if b.wideGin {
				extend(b.ginF, a.og.to)
			}
		}
	}
	for _, b := range s.spans {
		b.inner, b.outer = nil, nil
	}
	for _, p := range s.plans {
		p.stepBytes = 0
		if !p.handsOuts {
			overlay(p.out, p.outF)
		}
		overlay(p.gin, p.ginF)
	}
	// σ's VJP overwrites the cotangent a linked float64 plan hands in.
	for k := 0; k < last; k++ {
		if a, b := s.plans[k], s.plans[k+1]; s.linked[k] && !a.cast && !b.cast {
			overlay(b.gin, a.zbar)
		}
	}
	s.place(slices.ContainsFunc(s.plans, func(p *Plan) bool { return p.poison }))
	s.bind()
	for _, p := range s.plans {
		p.build()
	}
	if slices.ContainsFunc(s.plans, func(p *Plan) bool { return p.keepLife }) {
		s.record()
	}
}

// record keeps the step's buffers for tests (lifetimes).
func (s *Step) record() {
	s.lifetimes = s.lifetimes[:0]
	for k, p := range s.plans {
		seed := -1
		if p.train {
			seed = p.bo
		}
		for _, b := range p.spans {
			hands := ""
			switch {
			case b == p.outF || slices.Contains(p.outs, b):
				hands = "out"
			case b == p.gin || b == p.ginF:
				hands = "gin"
			}
			inside, in := "", -1
			if b.outer != nil {
				inside, in = b.outer.name, slices.Index(s.plans, b.outer.plan)
			}
			s.lifetimes = append(s.lifetimes, lifetime{p.Name, b.name, k, int64(b.bytes), b.from, b.to,
				[2]int{p.at(b.first), p.at(b.last)}, seed, b.off, hands, p.end(), inside, in})
		}
	}
}

// extend makes b, if the plan has it, live until position to at least.
func extend(b *span, to int) {
	if b != nil {
		b.to = max(b.to, to)
	}
}

// overlay makes cp the home of src as well when src dies at the position cp
// is born at, which reads src before it writes cp: src is then placed on
// cp's first words (place). cp is src's float64 copy, widened in place
// (spread), or σ's Z̄ over the Ḣ its VJP reads (opSigmaVJP).
func overlay(src, cp *span) {
	if src != nil && cp != nil && src.bytes > 0 && src.bytes <= cp.bytes && src.to == cp.from {
		cp.inner, src.outer = src, cp
	}
}

// place gives every buffer with bytes its offset in the slab: largest first
// — of equal ones, the one whose interval ends first — each at the lowest
// offset where no buffer placed before it and live while it is overlaps it.
// A buffer's offset is 0 or where such a buffer ends, so the ranges leave no
// gap. An overlaid pair is placed as one, with its copy: the source at the
// copy's offset, each part checked against every buffer live while it is.
// Each word of the slab counts in the stepBytes of the plan of the first
// buffer placed over it, so the plans' counts add up to the slab. With
// separate no two buffers share a word but an overlaid pair's.
func (s *Step) place(separate bool) {
	order := s.order[:0]
	for _, b := range s.spans {
		b.off = -1
		if b.bytes > 0 && b.outer == nil {
			order = append(order, b)
		}
	}
	slices.SortStableFunc(order, func(a, b *span) int {
		return cmp.Or(cmp.Compare(b.bytes, a.bytes), cmp.Compare(a.to, b.to))
	})
	// apart returns how many words from b's offset a placed o keeps b out of:
	// b's own where their intervals overlap, else its inner source's where
	// those do, else none.
	apart := func(b, o *span) int {
		switch in := b.inner; {
		case separate || o.from <= b.to && b.from <= o.to:
			return b.words()
		case in != nil && o.from <= in.to && in.from <= o.to:
			return in.words()
		}
		return 0
	}
	s.words = 0
	covered := s.covered[:0] // the slab's ranges placed so far, disjoint and sorted
	for i, b := range order {
		near := s.near[:0]
		for _, o := range order[:i] {
			if apart(b, o) > 0 {
				near = append(near, o)
			}
			if in := o.inner; in != nil && apart(b, in) > 0 {
				near = append(near, in)
			}
		}
		slices.SortFunc(near, func(a, b *span) int { return cmp.Compare(a.off, b.off) })
		// The lowest offset no near buffer keeps b out of: each move puts lo
		// past a buffer in the way, and a pass that moves nothing ends.
		lo := 0
		for moved := true; moved; {
			moved = false
			for _, o := range near {
				if lo < o.off+o.words() && o.off < lo+apart(b, o) {
					lo, moved = o.off+o.words(), true
				}
			}
		}
		hi := lo + b.words()
		b.off, s.near = lo, near
		if b.inner != nil {
			b.inner.off = lo
		}
		s.words = max(s.words, hi)
		fresh := hi - lo
		for _, c := range covered {
			fresh -= max(0, min(c[1], hi)-max(c[0], lo))
		}
		b.plan.stepBytes += 8 * int64(fresh)
		covered = append(covered, [2]int{lo, hi})
		slices.SortFunc(covered, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
		merged := covered[:1]
		for _, c := range covered[1:] {
			if last := &merged[len(merged)-1]; c[0] <= last[1] {
				last[1] = max(last[1], c[1])
			} else {
				merged = append(merged, c)
			}
		}
		covered = merged
	}
	s.order, s.covered = order, covered
}

// bind gives the slab storage — its own from an earlier layout, cleared,
// when it is long enough, else a fresh one from the arena — and points every
// buffer's views at its range.
func (s *Step) bind() {
	if len(s.slab.buf) >= s.words {
		clear(s.slab.buf[:s.words])
	} else {
		s.slab.get(s.ws, s.words)
	}
	for _, b := range s.spans {
		if b.off < 0 {
			b.attach(nil)
		} else {
			b.attach(s.slab.buf[b.off : b.off+b.words()])
		}
	}
}

// poisonAt fills every buffer of the step not live at position i with NaN:
// of an overlaid pair, only the words neither part is live over.
func (s *Step) poisonAt(i int) {
	for _, b := range s.spans {
		switch {
		case b.live(i), b.outer != nil && b.outer.live(i):
		case b.inner != nil && b.inner.live(i):
			b.fill(b.inner.words())
		default:
			b.fill(0)
		}
	}
}

// lifetime is what a step keeps of a planned buffer for tests: its plan, its
// plan's place in the step and its name, its bytes, its interval, the first
// and the last position of its plan touching it, its plan's seed (-1: none),
// its offset, what of its plan's results it is ("out": the output, a cut's
// out or the output's float64 copy; "gin": the input cotangent or its copy;
// "" otherwise), the last position of its plan and, overlaid, the name of the
// buffer it lies in and that buffer's plan's place in the step.
type lifetime struct {
	plan, name  string
	index       int
	bytes       int64
	first, last int
	touch       [2]int
	seed        int
	off         int
	hands       string
	end         int
	inside      string
	insideAt    int
}
