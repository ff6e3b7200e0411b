package fuse

import (
	"fmt"

	"agnn/internal/obs"
	"agnn/internal/par"
	"agnn/internal/tensor"
)

// Plan partitioning: the compile-time half of compute/communication
// overlap. A per-rank plan normally runs only after the full feature
// allgather has landed, putting the whole Θ(nk) collective on the critical
// path. But most rows of the rank's block depend only on feature rows that
// are already resident (the rank's own chunk) or arrive early in the ring:
// Partition splits every row-divisible op of the forward op list by
// row-dependency footprint into per-arrival-step fragments, so the engine
// can run step t's fragments the moment chunk t lands — local work first,
// halo-dependent rows draining as their inputs arrive.
//
// Correctness: every op's `each` body executes the exact per-row arithmetic
// of its sequential sweep, rows are mutually independent within an op, and
// fragments preserve the plan's topological op order within each step.
// A row is assigned to the step at which the *last* of its dependencies
// becomes available, so no fragment reads a feature row before its chunk
// has landed. Partitioned execution is therefore bitwise-identical to
// Plan.Forward (the differential tests in internal/distgnn pin this down).

// RowRange is a half-open [Lo, Hi) interval of global input (feature) rows.
type RowRange struct{ Lo, Hi int }

// Len returns the number of rows in the range.
func (r RowRange) Len() int { return r.Hi - r.Lo }

// PartitionedPlan is a compiled plan re-grouped into arrival-gated steps.
// Bind the input once, then call RunStep(t) after the t-th chunk of the
// collective has landed; after the last step the plan's output buffer holds
// exactly what Plan.Forward would have produced.
type PartitionedPlan struct {
	p     *Plan
	steps [][]ppFrag // steps[t]: op fragments, plan topological order

	// acc holds, per op (indexed like p.fwd), when its first fragment of the
	// current execution began and the wall time its fragments have summed
	// to; the final step credits each op's instrument once, so an overlapped
	// execution accounts exactly like an unfragmented Plan.Forward.
	acc []fragTime

	patRows   int // total pattern (block) rows
	localRows int // pattern rows executable at step 0
}

// fragTime is one op's share of a stepped execution: t0 is 0 until the op's
// first fragment runs.
type fragTime struct{ t0, ns int64 }

// ppFrag is one op's row fragment for one arrival step.
type ppFrag struct {
	idx int // index into p.fwd, for the per-op time accumulator
	run func()
}

// Partition splits the plan's forward op list by row-dependency footprint.
// avail[t] is the range of global input rows that becomes readable once
// step t's chunk has landed; avail[0] is the rank-resident chunk. The
// ranges must disjointly cover [0, inputRows).
//
// Two row domains exist in a per-rank plan: *global-domain* ops sweep the
// full input height (e.g. the H·W projection) and are simply re-ranged to
// avail[t] at step t; *pattern-domain* ops sweep the rank's block rows and
// are bucketed by the latest-arriving row they read — the row's own global
// index (score closures read the row side) joined with its adjacency
// column set. An error is returned when any forward op is row-indivisible
// (the fused inference attention sweep: compile with NoAttnFuse).
func (p *Plan) Partition(avail []RowRange) (*PartitionedPlan, error) {
	if p.released {
		return nil, fmt.Errorf("fuse: Partition on a released plan")
	}
	if p.stats.DType != tensor.F64 {
		return nil, fmt.Errorf("fuse: Partition requires an f64 plan (f32 plans cast at the Forward boundary and cannot rebind arrival fragments)")
	}
	if len(avail) == 0 {
		return nil, fmt.Errorf("fuse: Partition needs at least one arrival step")
	}
	n := p.leaves[0].rows
	pat := p.pat
	if pat.Cols != n {
		return nil, fmt.Errorf("fuse: pattern cols %d != input rows %d; cannot map columns to arrival steps", pat.Cols, n)
	}

	stepOf := make([]int32, n)
	for i := range stepOf {
		stepOf[i] = -1
	}
	for t, r := range avail {
		if r.Lo < 0 || r.Hi > n || r.Lo > r.Hi {
			return nil, fmt.Errorf("fuse: arrival range %d [%d,%d) out of bounds [0,%d)", t, r.Lo, r.Hi, n)
		}
		for i := r.Lo; i < r.Hi; i++ {
			if stepOf[i] != -1 {
				return nil, fmt.Errorf("fuse: input row %d in two arrival ranges", i)
			}
			stepOf[i] = int32(t)
		}
	}
	for i, s := range stepOf {
		if s == -1 {
			return nil, fmt.Errorf("fuse: input row %d not covered by any arrival range", i)
		}
	}

	for i := range p.fwd {
		op := &p.fwd[i]
		if op.each == nil {
			return nil, fmt.Errorf("fuse: plan %q: op %q (%s) is row-indivisible", p.Name, op.op, op.span)
		}
		if op.rows != pat.Rows && op.rows != n {
			return nil, fmt.Errorf("fuse: plan %q: op %q sweeps %d rows — neither pattern (%d) nor input (%d) domain",
				p.Name, op.op, op.rows, pat.Rows, n)
		}
	}

	// Bucket pattern rows by the arrival step of their latest dependency.
	// The bucket is shared by every pattern-domain op: it joins everything
	// any of them can read for row i (the row's own global index, for the
	// score closures' row side, plus the adjacency column set).
	rowStep := make([]int32, pat.Rows)
	buckets := make([][]int32, len(avail))
	for i := 0; i < pat.Rows; i++ {
		st := stepOf[i+p.rowOff]
		for q := pat.RowPtr[i]; q < pat.RowPtr[i+1]; q++ {
			if s := stepOf[pat.Col[q]]; s > st {
				st = s
			}
		}
		rowStep[i] = st
		buckets[st] = append(buckets[st], int32(i))
	}

	pp := &PartitionedPlan{
		p:         p,
		steps:     make([][]ppFrag, len(avail)),
		acc:       make([]fragTime, len(p.fwd)),
		patRows:   pat.Rows,
		localRows: len(buckets[0]),
	}
	for t := range avail {
		for i := range p.fwd {
			op := &p.fwd[i]
			var frag func()
			if op.rows == pat.Rows { // pattern domain (conservative when equal to n)
				if list := buckets[t]; len(list) > 0 {
					frag = listRun(list, op.each)
				}
			} else if r := avail[t]; r.Len() > 0 { // global domain: re-range to the chunk
				frag = rangeRun(r.Lo, r.Hi, op.each)
			}
			if frag != nil {
				pp.steps[t] = append(pp.steps[t], ppFrag{idx: i, run: frag})
			}
		}
	}
	return pp, nil
}

// listRun builds a prebuilt parallel sweep of each over an explicit row
// list. Closures are created here, once, so RunStep allocates nothing.
func listRun(list []int32, each func(i int)) func() {
	body := func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			each(int(list[x]))
		}
	}
	return func() { par.Range(len(list), body) }
}

// rangeRun builds a prebuilt parallel sweep of each over [lo, hi).
func rangeRun(lo, hi int, each func(i int)) func() {
	n := hi - lo
	body := func(_, l, h int) {
		for i := l + lo; i < h+lo; i++ {
			each(i)
		}
	}
	return func() { par.Range(n, body) }
}

// Steps returns the number of arrival steps.
func (pp *PartitionedPlan) Steps() int { return len(pp.steps) }

// LocalFraction reports the fraction of the rank's block rows executable at
// step 0 — the compute the overlap can hide behind the collective.
func (pp *PartitionedPlan) LocalFraction() float64 {
	if pp.patRows == 0 {
		return 0
	}
	return float64(pp.localRows) / float64(pp.patRows)
}

// Bind attaches the input feature matrix for the coming stepped execution.
// Rows beyond avail[0] may still be unfilled: RunStep(t) only reads rows
// whose chunks the caller has declared landed.
func (pp *PartitionedPlan) Bind(h *tensor.Dense) {
	p := pp.p
	if p.released {
		panic("fuse: Bind on a released plan")
	}
	if h.Rows != p.leaves[0].rows || h.Cols != p.leaves[0].cols {
		panic(fmt.Sprintf("fuse: plan %q input shape %d×%d, got %d×%d",
			p.Name, p.leaves[0].rows, p.leaves[0].cols, h.Rows, h.Cols))
	}
	p.x.bind(0, tensor.Typed{F64: h})
	p.x.refresh()
}

// RunStep executes step t's op fragments (plan topological order inside the
// step). Call only after the rows of avail[t] are present in the bound
// input. Individual fragment latencies are never observed — a partial sweep
// would skew the per-op histograms — but each op's fragment times are
// accumulated and credited to its instrument as one whole-sweep execution
// when the final step completes (the same obs.Op.Done runOps calls), so
// overlapped executions account exactly like Plan.Forward; the op's record
// starts at its first fragment and lasts the time its fragments summed to.
func (pp *PartitionedPlan) RunStep(t int) {
	for _, f := range pp.steps[t] {
		a := &pp.acc[f.idx]
		t0 := obs.Now()
		f.run()
		a.ns += obs.Now() - t0
		if a.t0 == 0 {
			a.t0 = t0
		}
	}
	if t == len(pp.steps)-1 {
		for i := range pp.p.fwd {
			a := pp.acc[i]
			if a.t0 == 0 { // no row of the op in any step
				a.t0 = obs.Now()
			}
			pp.p.fwd[i].site.Done(a.t0, a.ns)
			pp.acc[i] = fragTime{}
		}
		pp.p.ranForward = true
	}
}

// Output returns the plan's output buffer — valid after the last step has
// run, owned by the plan and overwritten by the next execution.
func (pp *PartitionedPlan) Output() *tensor.Dense { return pp.p.Output() }
