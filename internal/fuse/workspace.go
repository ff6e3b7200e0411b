package fuse

import (
	"cmp"
	"math"
	"slices"

	"agnn/internal/tensor"
)

// Workspace planning. One step of a plan is a list of positions: the forward
// ops, the seed (Backward loading the output cotangent), then the backward
// ops. Every buffer compile acquires for a step — node values, cotangents,
// the chain cotangents on the pattern, a softmax's row statistics, the fused
// VJP's C̄, a grid softmax's row exchange — is live from the first position
// that touches it to the last one, and buffers whose intervals do not
// overlap share storage: the buffers are coloured, greedily, into slots, each
// slot one slice from the arena, and every matrix header or slice field a
// buffer has is a view of its slot's first words.
//
// Three rules keep every result what a plan with a buffer per node computes:
//   - a cotangent accumulated into (+=) is cleared at the start of its own
//     interval — in the seed's one parallel sweep when nothing else occupies
//     its slot between the seed and its first writer, otherwise just before
//     that writer;
//   - what a step hands its caller — the output, the values of the cut's outs
//     and the input cotangent — stays live to the end of the step, so nothing
//     written after it shares its storage; so does a forward value the
//     backward reads, so that a second Backward reads what the first did
//     (the input cotangent does share storage with forward buffers, which the
//     next Forward writes);
//   - what persists between steps — values bound from the caller, parameters
//     and their gradients, A's values at the plan's width or in Aᵀ's order —
//     is not planned here at all.
//
// The intervals are the compiled plan's; the sizes are the pattern's. A plan
// bound to another pattern (Plan.Bind) sizes and colours the same buffers
// again and keeps each slot's storage unless the slot has outgrown it.

// buffer is one piece of a step's workspace before it has storage.
type buffer[T elem] struct {
	name        string
	size        func() int // its words under the pattern the plan is bound to
	words       int
	first, last int  // positions touching it, the first and the last (first < 0: none yet)
	start       int  // first as close left it: clears may move first to the seed
	zero        bool // accumulated into: cleared at the start of its interval
	keep        bool // handed to the caller: live to the end of the step
	slot        int
	mats        []*tensor.Mat[T] // headers viewing it
	views       []*[]T           // slice fields viewing it
	data        []T              // its storage, once bound
}

// mat returns a new r×c header that will view b.
func (b *buffer[T]) mat(r, c int) *tensor.Mat[T] {
	m := &tensor.Mat[T]{Rows: r, Cols: c}
	b.mats = append(b.mats, m)
	return m
}

// view makes *dst a view of b once b has storage.
func (b *buffer[T]) view(dst *[]T) { b.views = append(b.views, dst) }

// live reports whether b is live at position i.
func (b *buffer[T]) live(i int) bool { return b.first <= i && i <= b.last }

// lifetime is what a compiled plan keeps of a planned buffer: its name, size,
// interval and slot.
type lifetime struct {
	name        string
	words       int64
	first, last int
	slot        int
	keep        bool
}

// layout is the workspace plan of one step.
type layout[T elem] struct {
	bufs  []*buffer[T]
	slots []int     // words per slot
	store []held[T] // each slot's storage, at least its words long

	// Kept from one bind to the next, so that binding allocates nothing
	// the previous bind had.
	order     []*buffer[T]
	occupants [][]*buffer[T]
	at        map[int]*zeroSweep[T] // the clears placed before each position
}

func (l *layout[T]) add(name string, size func() int) *buffer[T] {
	b := &buffer[T]{name: name, size: size, first: -1}
	l.bufs = append(l.bufs, b)
	return b
}

// touch marks the buffers (nil ones skipped) live at position i. Positions
// are touched in increasing order.
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

// close ends every interval. A buffer handed to the caller stays live to end,
// the step's last position, and so does a value the forward writes and the
// backward reads: a Backward can then be repeated without a Forward in
// between and read the same values. An accumulated buffer no op touched is
// cleared at the seed; any other untouched one is live for the whole step.
func (l *layout[T]) close(seed, end int) {
	for _, b := range l.bufs {
		switch {
		case b.first < 0 && b.zero:
			b.first, b.last = seed, seed
		case b.first < 0:
			b.first, b.last = 0, end
		}
		if b.keep || b.first < seed && b.last >= seed {
			b.last = end
		}
		b.start = b.first
	}
}

// colour sizes the buffers under the current pattern and places them into
// slots: largest first, each into the first slot none of whose occupants is
// live while it is, else into a new slot of its size. Largest first means a
// buffer never widens the slot it joins. With separate every buffer gets a
// slot of its own.
func (l *layout[T]) colour(separate bool) {
	l.slots = l.slots[:0]
	for _, b := range l.bufs {
		b.first, b.words = b.start, b.size()
	}
	order := append(l.order[:0], l.bufs...)
	slices.SortStableFunc(order, func(a, b *buffer[T]) int {
		return cmp.Or(cmp.Compare(b.words, a.words), cmp.Compare(a.first, b.first))
	})
	occupants := l.occupants[:0]
	for _, b := range order {
		b.slot = -1
		for s, occ := range occupants {
			if !separate && !slices.ContainsFunc(occ, func(o *buffer[T]) bool { return o.first <= b.last && b.first <= o.last }) {
				b.slot = s
				break
			}
		}
		if b.slot < 0 {
			b.slot = len(occupants)
			if len(occupants) < cap(occupants) {
				occupants = occupants[:b.slot+1]
				occupants[b.slot] = occupants[b.slot][:0]
			} else {
				occupants = append(occupants, nil)
			}
			l.slots = append(l.slots, b.words)
		}
		occupants[b.slot] = append(occupants[b.slot], b)
	}
	l.order, l.occupants = order, occupants
}

// clears places the clear of every accumulated buffer: into atSeed, the
// seed's one parallel sweep, when no other occupant of its slot is live
// between the seed and its first writer (its interval then starts at the
// seed), else into the sweep it returns for its first position.
func (l *layout[T]) clears(seed int, atSeed *zeroSweep[T]) map[int]*zeroSweep[T] {
	if l.at == nil {
		l.at = make(map[int]*zeroSweep[T])
	}
	at := l.at
	clear(at)
	for _, b := range l.bufs {
		if !b.zero {
			continue
		}
		if !slices.ContainsFunc(l.bufs, func(o *buffer[T]) bool {
			return o != b && o.slot == b.slot && o.first < b.first && o.last >= seed
		}) {
			b.first = seed
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

// bind gives every slot storage — the slot's own from an earlier bind,
// cleared, when it is long enough, else a fresh one from ws — and points
// every buffer's views at its slot. A matrix header takes the rows its
// buffer now holds.
func (l *layout[T]) bind(ws *tensor.Arena) {
	for len(l.store) > len(l.slots) {
		l.store[len(l.store)-1].release(ws)
		l.store = l.store[:len(l.store)-1]
	}
	for len(l.store) < len(l.slots) {
		l.store = append(l.store, held[T]{})
	}
	for s, n := range l.slots {
		if st := &l.store[s]; len(st.buf) >= n {
			clear(st.buf[:n])
		} else {
			st.get(ws, n)
		}
	}
	for _, b := range l.bufs {
		b.data = l.store[b.slot].buf[:b.words:b.words]
		for _, m := range b.mats {
			if m.Cols > 0 {
				m.Rows = b.words / m.Cols
			}
			m.Data = b.data
		}
		for _, v := range b.views {
			*v = b.data
		}
	}
}

// release returns the slots' storage to ws.
func (l *layout[T]) release(ws *tensor.Arena) {
	for s := range l.store {
		l.store[s].release(ws)
	}
	l.store = nil
}

// held is storage a plan keeps across steps: a slot of its layout, or a
// buffer outside it (A's values at the plan's width or in Aᵀ's order, a grid
// plan's staging words). A bind that needs more than it holds replaces it.
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

// prologue makes the op at position i run what has to precede it: the clears
// placed there, and under poisonDead the poisoning of every buffer not live
// at i.
func (l *layout[T]) prologue(op *planOp, i int, z *zeroSweep[T]) {
	run := op.run
	switch {
	case poisonDead:
		op.run = func() {
			l.poison(i)
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
// compile give every buffer a slot of its own and fill each buffer not live at
// a position with NaN before the position's op runs: an op that touches a
// buffer outside its planned interval then computes with NaN. keepLifetimes
// makes each plan keep its buffers' lifetimes (Plan.lifetimes).
var poisonDead, keepLifetimes bool

func (l *layout[T]) poison(i int) {
	nan := T(math.NaN())
	for _, b := range l.bufs {
		if !b.live(i) {
			for q := range b.data {
				b.data[q] = nan
			}
		}
	}
}
