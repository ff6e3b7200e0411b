// Package dist is the simulated distributed-memory runtime substituting for
// MPI on Piz Daint (see DESIGN.md §2): each rank is a goroutine, point-to-
// point messages travel over buffered channels, and collectives are
// implemented with volume-optimal ring algorithms (scatter + ring allgather
// broadcast, ring reduce-scatter, reduce-scatter + allgather allreduce) so
// the per-rank communication volume matches what an MPI implementation
// would move — the quantity the paper's BSP analysis (Section 7) bounds.
//
// Every rank's bytes sent, message count and communication rounds are
// recorded in Counters; an α-β network model converts them into modeled
// network time for the scaling figures.
//
// The runtime is fault-aware (docs/ROBUSTNESS.md): a World built with
// Options carries a deterministic fault injector (internal/dist/faults),
// deadline-based receive timeouts and bounded send retry. When a rank fails
// — injected crash, receive timeout, or retry exhaustion — the failure is
// broadcast to the whole world, every blocked rank unwinds with an error
// wrapping ErrRankFailed instead of deadlocking, and TryRun reports the
// per-rank outcomes so a training loop can rebuild the world and resume
// from its last checkpoint.
package dist

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agnn/internal/dist/faults"
	distnet "agnn/internal/dist/net"
	"agnn/internal/obs"
	"agnn/internal/obs/causal"
	"agnn/internal/obs/metrics"
)

// Counters accumulates per-rank communication statistics.
type Counters struct {
	BytesSent int64 // 8 bytes per float64 word
	MsgsSent  int64
	Rounds    int64 // communication rounds (BSP supersteps entered)
}

// rankCounters is a rank's live Counters: the one place a message's bytes
// and a round are counted. Everything else that reports communication
// volume — Comm.Counters, a collective's per-call delta, the
// agnn_comm_*_total families (commtotals.go) — reads it.
type rankCounters struct{ bytes, msgs, rounds atomic.Int64 }

func (c *rankCounters) load() Counters {
	return Counters{BytesSent: c.bytes.Load(), MsgsSent: c.msgs.Load(), Rounds: c.rounds.Load()}
}

// Add merges two counter sets.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		BytesSent: c.BytesSent + o.BytesSent,
		MsgsSent:  c.MsgsSent + o.MsgsSent,
		Rounds:    c.Rounds + o.Rounds,
	}
}

// NetModel is an α-β communication-time model: each message costs Alpha
// seconds of latency and each byte Beta seconds of bandwidth time.
type NetModel struct {
	Alpha float64 // seconds per message
	Beta  float64 // seconds per byte
}

// CrayAries returns parameters approximating the paper's Piz Daint
// interconnect: ~1.5 µs latency, ~10 GB/s injection bandwidth per node.
func CrayAries() NetModel { return NetModel{Alpha: 1.5e-6, Beta: 1e-10} }

// Time converts counters to modeled network seconds.
func (m NetModel) Time(c Counters) float64 {
	return m.Alpha*float64(c.MsgsSent) + m.Beta*float64(c.BytesSent)
}

// Failure sentinels. Every error produced by the runtime's fault paths
// wraps ErrRankFailed, so callers can match the whole class with one
// errors.Is; ErrRecvTimeout additionally tags deadline expiries.
var (
	ErrRankFailed  = errors.New("dist: rank failed")
	ErrRecvTimeout = errors.New("receive timed out")
)

// Options configures a World's fault-tolerance behavior. The zero value —
// no injector, no timeout, no retries — reproduces the fault-free runtime.
type Options struct {
	// Faults is the deterministic fault injector consulted on every send
	// and round entry. Nil injects nothing.
	Faults *faults.Injector
	// RecvTimeout bounds every point-to-point receive (and therefore every
	// collective, which is built from receives). Zero disables deadlines.
	RecvTimeout time.Duration
	// SendRetries is the number of retransmissions attempted after an
	// injected transient send failure before the rank declares itself
	// failed. It must exceed the spec's largest drop max for bounded
	// retransmission to succeed; DefaultSendRetries when zero.
	SendRetries int
	// RetryBackoff is the base sleep between retransmissions (scaled
	// linearly by attempt). DefaultRetryBackoff when zero.
	RetryBackoff time.Duration
}

// Defaults for Options.
const (
	DefaultSendRetries  = 4
	DefaultRetryBackoff = 200 * time.Microsecond
)

func (o Options) sendRetries() int {
	if o.SendRetries > 0 {
		return o.SendRetries
	}
	return DefaultSendRetries
}

func (o Options) retryBackoff() time.Duration {
	if o.RetryBackoff > 0 {
		return o.RetryBackoff
	}
	return DefaultRetryBackoff
}

// World owns the transport endpoints and counters of a p-rank run. The
// transport seam (internal/dist/net) decides what a rank is: with the
// in-process channel world all p ranks are goroutines sharing one World
// (local == -1); with a wire transport each OS process holds a World whose
// endpoints slice is populated only at its own rank (local >= 0).
type World struct {
	P        int
	opts     Options
	eps      []distnet.Endpoint         // eps[rank]; only eps[local] in a net world
	inbox    [][]<-chan distnet.Message // inbox[to][from], cached so Recv keeps direct channel selects
	local    int                        // -1: all ranks in-process; else this process's rank
	counters []rankCounters

	// Failure broadcast: the first rank to fail records itself and closes
	// failCh; every rank blocked in Send/Recv selects on failCh and unwinds
	// with ErrRankFailed instead of deadlocking.
	failCh    chan struct{}
	failOnce  sync.Once
	failed    atomic.Bool
	failRank  int
	failCause error

	// tel is the world's telemetry: per locally hosted rank, the rank's
	// event log and the instruments of the sites the runtime emits from,
	// resolved once at construction (wireRank) — for a net world's one rank
	// exactly as for an in-process world's p.
	tel []rankTel

	// Straggler diagnostics (straggler.go): the per-superstep wait
	// accumulators the Recv hot path feeds.
	waitNs   []atomic.Int64 // wait accumulated during the current superstep
	lastWait []atomic.Int64 // wait of the last completed superstep

	// Causal stamping: per-rank send sequence numbers and current
	// superstep. Always on — they are the message headers' source of truth,
	// whether or not the run is recorded.
	sendSeq []atomic.Uint64
	stepNow []atomic.Int64
}

// The collective kinds, indexing a rank's instruments.
const (
	collBarrier = iota
	collBcast
	collAllgather
	collReduceScatter
	collAllreduce
	collReduce
	collGatherv
	collAlltoallv
	numColl
)

// collNames are the kinds' record names and their labels in the
// agnn_collective_bytes histogram.
var collNames = [numColl]string{"barrier", "bcast", "allgather", "reduce_scatter", "allreduce",
	"reduce", "gatherv", "alltoallv"}

// rankTel is one rank's telemetry: its sites (log, wait histogram,
// straggler counter) and one instrument per collective kind.
type rankTel struct {
	obs.RankSites
	coll [numColl]obs.Collective
}

// NewWorld creates a fault-free p-rank world.
func NewWorld(p int) (*World, error) { return NewWorldOpts(p, Options{}) }

// NewWorldOpts creates a p-rank in-process world with fault-tolerance
// options: all ranks are goroutines exchanging messages over the channel
// transport.
func NewWorldOpts(p int, opts Options) (*World, error) {
	cw, err := distnet.NewChanWorld(p)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	w := newWorldShell(p, -1, opts)
	for r := 0; r < p; r++ {
		w.eps[r] = cw.Endpoint(r)
		w.wireRank(r)
	}
	w.cacheInboxes()
	return w, nil
}

// NewNetWorld wraps one bootstrapped transport endpoint (one OS process =
// one rank, e.g. net.DialTCP) in a World. Only the endpoint's own rank is
// wired: counters, metric instruments and diagnostics exist for the local
// rank, and peer failures detected by the transport (heartbeat silence,
// connection loss, FAIL frames) feed the world's usual ErrRankFailed
// broadcast.
func NewNetWorld(ep distnet.Endpoint, opts Options) (*World, error) {
	p := ep.Size()
	if p < 1 {
		return nil, fmt.Errorf("dist: world size %d, want >= 1", p)
	}
	local := ep.Rank()
	if local < 0 || local >= p {
		return nil, fmt.Errorf("dist: local rank %d of world %d", local, p)
	}
	w := newWorldShell(p, local, opts)
	w.eps[local] = ep
	w.wireRank(local)
	w.cacheInboxes()
	ep.SetFailureHandler(func(rank int, cause error) {
		w.fail(rank, fmt.Errorf("%w: %v", ErrRankFailed, cause))
	})
	return w, nil
}

// newWorldShell allocates the per-rank state shared by both constructors.
func newWorldShell(p, local int, opts Options) *World {
	w := &World{
		P: p, opts: opts, local: local,
		counters: make([]rankCounters, p),
		failCh:   make(chan struct{}),
	}
	w.eps = make([]distnet.Endpoint, p)
	w.inbox = make([][]<-chan distnet.Message, p)
	w.tel = make([]rankTel, p)
	w.waitNs = make([]atomic.Int64, p)
	w.lastWait = make([]atomic.Int64, p)
	w.sendSeq = make([]atomic.Uint64, p)
	w.stepNow = make([]atomic.Int64, p)
	return w
}

// wireRank resolves the telemetry of one locally hosted rank: its log and
// site instruments, and one instrument per collective kind, so that no
// message, round or collective call looks anything up.
func (w *World) wireRank(rank int) {
	t := &w.tel[rank]
	t.RankSites = obs.SitesFor(rank)
	for k, name := range collNames {
		t.coll[k] = t.Collective(name)
	}
}

// cacheInboxes resolves the receive channels of every locally hosted rank
// once, keeping the Recv hot path a direct channel select.
func (w *World) cacheInboxes() {
	for to := 0; to < w.P; to++ {
		if w.eps[to] == nil {
			continue
		}
		w.inbox[to] = make([]<-chan distnet.Message, w.P)
		for from := 0; from < w.P; from++ {
			w.inbox[to][from] = w.eps[to].Inbox(from)
		}
	}
}

// localEndpoint returns an endpoint through which this process can reach
// the transport (any in-process endpoint, or the net world's own).
func (w *World) localEndpoint() distnet.Endpoint {
	if w.local >= 0 {
		return w.eps[w.local]
	}
	if len(w.eps) > 0 {
		return w.eps[0]
	}
	return nil
}

// fail records the world's first failure and broadcasts it. failRank and
// failCause are published before failCh closes, so readers that observe the
// close (or failed == true) see them consistently.
func (w *World) fail(rank int, cause error) {
	w.failOnce.Do(func() {
		w.failRank = rank
		w.failCause = cause
		w.failed.Store(true)
		// Postmortem: leave a failure event on the rank's log and, when a
		// dump directory is configured, write the black-box artifact naming
		// the failed rank and its last superstep before survivors unwind.
		// A net world advances only its own rank's counters, so a peer's
		// failure is recorded at the superstep this process reached.
		at := rank
		if w.local >= 0 {
			at = w.local
		}
		obs.RankFailed(rank, w.counters[at].rounds.Load(), cause)
		close(w.failCh)
		// Poison the transport so blocked senders unwind, and (on a wire
		// transport) broadcast the failure to peer processes. The FAIL
		// frame carries the cause without the sentinel, which each peer's
		// failure handler names again.
		if ep := w.localEndpoint(); ep != nil {
			ep.Abort(rank, errors.New(strings.TrimPrefix(cause.Error(), ErrRankFailed.Error()+": ")))
		}
	})
}

// survivorErr is the error a non-failing rank unwinds with once the world
// is marked failed. It wraps the cause — which wraps ErrRankFailed, so the
// sentinel is named once — and errors.Is finds a receive timeout whichever
// of two ranks starving each other expired first.
func (w *World) survivorErr() error {
	return fmt.Errorf("dist: aborted after failure on rank %d: %w", w.failRank, w.failCause)
}

// rankFailure is the internal unwind sentinel: Comm methods panic with it
// when the rank must abort its superstep, and the Run harnesses recover it
// into a per-rank error. Any other panic value is a genuine bug and is
// re-raised.
type rankFailure struct {
	rank int
	err  error
}

// abort marks this rank failed (broadcasting to the world) and unwinds.
func (c *Comm) abort(cause error) {
	c.w.fail(c.global, cause)
	panic(rankFailure{rank: c.global, err: cause})
}

// abortSurvivor unwinds this rank because another rank failed first.
func (c *Comm) abortSurvivor() {
	panic(rankFailure{rank: c.global, err: c.w.survivorErr()})
}

// Run executes f on every rank of a fresh fault-free p-rank world
// concurrently and returns the per-rank communication counters. Run is the
// SPMD test/benchmark harness: an invalid world size panics; use TryRun for
// recoverable failure handling.
func Run(p int, f func(c *Comm)) []Counters {
	cs, errs, err := TryRun(p, Options{}, func(c *Comm) error {
		f(c)
		return nil
	})
	if err != nil {
		panic(err) // invalid world size: static caller bug in the SPMD harness
	}
	for _, e := range errs {
		if e != nil {
			// Without fault options no runtime path aborts, so a rank error
			// here is unreachable; keep the harness loud just in case.
			panic(e)
		}
	}
	return cs
}

// TryRun executes f on every rank of a fresh world built with opts and
// returns the per-rank counters and the per-rank outcomes (errs[r] is nil
// for ranks that completed). The final error reports world construction
// problems only; rank failures — injected crashes, timeouts, retry
// exhaustion, and the survivors they abort — land in errs, every one
// matching errors.Is(err, ErrRankFailed).
func TryRun(p int, opts Options, f func(c *Comm) error) ([]Counters, []error, error) {
	w, err := NewWorldOpts(p, opts)
	if err != nil {
		return nil, nil, err
	}
	w.enter()
	defer w.retire()
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = w.runRank(rank, f)
		}(r)
	}
	wg.Wait()
	return w.Counters(), errs, nil
}

// runRank runs f as one rank on the calling goroutine: the goroutine is
// bound to the rank's event log, so whatever f wires — engines, models,
// compiled plans — records there, and a rank-failure unwind comes back as
// the error.
func (w *World) runRank(rank int, f func(c *Comm) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			rf, ok := rec.(rankFailure)
			if !ok {
				panic(rec)
			}
			err = rf.err
		}
	}()
	obs.Bind(w.tel[rank].Log)
	defer obs.Unbind()
	return f(w.Comm(rank))
}

// TryRunLocal executes f on the net world's own rank — the per-process
// counterpart of TryRun. On clean completion the endpoint says goodbye so
// peers treat the teardown as benign; rank failures (local aborts and
// survivor unwinds triggered by peer failures) return as errors wrapping
// ErrRankFailed.
func (w *World) TryRunLocal(f func(c *Comm) error) (Counters, error) {
	if w.local < 0 {
		return Counters{}, errors.New("dist: TryRunLocal requires a net-backed world (use TryRun for in-process worlds)")
	}
	w.enter()
	defer w.retire()
	err := w.runRank(w.local, f)
	if err == nil {
		w.eps[w.local].Goodbye()
	}
	return w.counters[w.local].load(), err
}

// LocalRank returns the world's locally hosted rank (-1 when all ranks are
// in-process).
func (w *World) LocalRank() int { return w.local }

// FirstError returns the first non-nil error of a per-rank error slice.
func FirstError(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Comm returns the world communicator of a rank (group = all ranks).
func (w *World) Comm(rank int) *Comm {
	group := make([]int, w.P)
	for i := range group {
		group[i] = i
	}
	return &Comm{w: w, global: rank, group: group, me: rank, tel: &w.tel[rank]}
}

// Counters returns a snapshot of all per-rank counters.
func (w *World) Counters() []Counters {
	out := make([]Counters, w.P)
	for i := range out {
		out[i] = w.counters[i].load()
	}
	return out
}

// MaxCounters returns the element-wise maximum over ranks — the BSP
// "maximum words sent by any processor" of Section 7.
func MaxCounters(cs []Counters) Counters {
	var m Counters
	for _, c := range cs {
		if c.BytesSent > m.BytesSent {
			m.BytesSent = c.BytesSent
		}
		if c.MsgsSent > m.MsgsSent {
			m.MsgsSent = c.MsgsSent
		}
		if c.Rounds > m.Rounds {
			m.Rounds = c.Rounds
		}
	}
	return m
}

// TotalCounters sums counters over ranks.
func TotalCounters(cs []Counters) Counters {
	var t Counters
	for _, c := range cs {
		t = t.Add(c)
	}
	return t
}

// Comm is a communicator: a rank's endpoint within a group of ranks. The
// world communicator spans all ranks; Group derives row/column
// sub-communicators for the 2D process grid.
type Comm struct {
	w      *World
	global int        // my global rank
	group  []int      // global ranks of the group, in group order
	me     int        // my index within group
	tel    *rankTel   // my rank's telemetry (the world's, shared with sub-communicators)
	med    []int64    // median scratch for superstep wait stats, lazily sized to P
	word   [1]float64 // the one-word length messages of Bcast and Allgather

	// curColl is the interned name of the collective currently executing on
	// this communicator (0 between collectives); message records carry it
	// so path segments and flow arrows name their collective hop. Nested
	// collectives (allreduce = reduce-scatter + allgather) stack codes so
	// the innermost wins. Owned by the rank goroutine.
	curColl   uint32
	collStack []uint32
}

// Rank returns the caller's rank within the communicator's group.
func (c *Comm) Rank() int { return c.me }

// Size returns the group size.
func (c *Comm) Size() int { return len(c.group) }

// GlobalRank returns the world rank.
func (c *Comm) GlobalRank() int { return c.global }

// Group returns a sub-communicator over the given group-local ranks. All
// listed members must call Group with the same list (SPMD convention).
// Callers not in the list receive nil.
func (c *Comm) Group(local []int) *Comm {
	globals := make([]int, len(local))
	me := -1
	for i, l := range local {
		globals[i] = c.group[l]
		if l == c.me {
			me = i
		}
	}
	if me < 0 {
		return nil
	}
	return &Comm{w: c.w, global: c.global, group: globals, me: me, tel: c.tel}
}

// Send transfers a copy of data to group rank `to`: the transport reads data
// during the call only, so the caller may overwrite it on return. It never
// blocks as long as fewer than mailboxCap messages are outstanding on the
// (from, to) pair.
// Under an injector, sends may be delayed (stragglers) or transiently
// dropped; drops are retransmitted with linear backoff up to the world's
// retry budget, after which the rank aborts. If another rank has already
// failed, Send unwinds with ErrRankFailed instead of queueing into a dead
// world.
func (c *Comm) Send(to int, data []float64) {
	if inj := c.w.opts.Faults; inj != nil {
		for attempt := 1; ; attempt++ {
			act := inj.OnSend(c.global, attempt)
			if act.Delay > 0 {
				metrics.FaultsInjectedTotal.With("delay").Inc()
				time.Sleep(act.Delay)
			}
			if !act.Drop {
				break
			}
			metrics.FaultsInjectedTotal.With("drop").Inc()
			if attempt > c.w.opts.sendRetries() {
				c.abort(fmt.Errorf("%w: rank %d: send to rank %d still failing after %d attempts",
					ErrRankFailed, c.global, c.group[to], attempt))
			}
			metrics.CommRetriesTotal.Inc()
			time.Sleep(c.w.opts.retryBackoff() * time.Duration(attempt))
		}
	}
	if c.w.failed.Load() {
		c.abortSurvivor()
	}
	cnt := &c.w.counters[c.global]
	cnt.bytes.Add(int64(8 * len(data)))
	cnt.msgs.Add(1)
	// Causal stamp: the sequence is an always-on atomic; the header rides
	// the channel message by value.
	hdr := causal.Header{
		Src:  int32(c.global),
		Seq:  c.w.sendSeq[c.global].Add(1),
		Step: c.w.stepNow[c.global].Load(),
	}
	c.tel.Sent(c.curColl, hdr.Seq, c.group[to], hdr.Step)
	if err := c.w.eps[c.global].Send(c.group[to], distnet.Message{Data: data, Hdr: hdr}); err != nil {
		c.sendFailed(c.group[to], err)
	}
}

// sendFailed maps a transport send error to the runtime's unwind paths: a
// poisoned world means some rank already failed (unwind as a survivor); any
// other transport error blames the unreachable peer and broadcasts it.
func (c *Comm) sendFailed(to int, err error) {
	if errors.Is(err, distnet.ErrWorldDown) && c.w.failed.Load() {
		c.abortSurvivor()
	}
	cause := fmt.Errorf("%w: rank %d: send to rank %d: %v", ErrRankFailed, c.global, to, err)
	c.w.fail(to, cause)
	panic(rankFailure{rank: c.global, err: cause})
}

// Recv blocks until a message from group rank `from` arrives, the world's
// receive deadline expires (the rank then aborts with ErrRecvTimeout), or
// another rank fails (the rank unwinds with ErrRankFailed). The returned
// buffer is the caller's to keep: the wire pool no longer counts it.
func (c *Comm) Recv(from int) []float64 {
	in := c.recv(from)
	c.w.eps[c.global].Keep(in)
	return in
}

// recv is Recv for a collective that copies or reduces what it receives: the
// payload stays a buffer of the wire pool, for the collective to recycle.
func (c *Comm) recv(from int) []float64 {
	if c.w.failed.Load() {
		c.abortSurvivor()
	}
	box := c.w.inbox[c.global][c.group[from]]
	// Fast path: a queued message costs no wait and no clock reads.
	select {
	case m := <-box:
		return c.accept(m, 0)
	default:
	}
	t0 := obs.Now()
	defer func() { c.w.noteWait(c.global, obs.Now()-t0) }()
	if d := c.w.opts.RecvTimeout; d > 0 {
		timer := acquireTimer(d)
		defer releaseTimer(timer)
		select {
		case m := <-box:
			return c.accept(m, t0)
		case <-c.w.failCh:
			c.abortSurvivor()
		case <-timer.C:
			c.abort(fmt.Errorf("%w: rank %d: %w waiting for rank %d after %v",
				ErrRankFailed, c.global, ErrRecvTimeout, c.group[from], d))
		}
		panic("unreachable")
	}
	select {
	case m := <-box:
		return c.accept(m, t0)
	case <-c.w.failCh:
		c.abortSurvivor()
		panic("unreachable")
	}
}

// recvInto is the collectives' receive: the payload is borrowed — copied
// into dst and handed straight back to the endpoint for the next arrival.
func (c *Comm) recvInto(from int, dst []float64) {
	in := c.recv(from)
	copy(dst, in)
	c.recycle(in)
}

// recycle hands a received payload the collective has copied or reduced
// back to the rank's endpoint.
func (c *Comm) recycle(in []float64) { c.w.eps[c.global].Recycle(in) }

// recvTimers pools the deadline timers of blocked receives. Arming a
// receive deadline used to allocate a fresh runtime timer per blocked
// receive; the pool amortizes that to zero on the steady state while
// staying safe for the concurrent receives of in-process ranks.
var recvTimers = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// acquireTimer returns a pooled timer armed with deadline d. Timers in the
// pool are guaranteed stopped and drained, so Reset is race-free.
func acquireTimer(d time.Duration) *time.Timer {
	t := recvTimers.Get().(*time.Timer)
	t.Reset(d)
	return t
}

// releaseTimer disarms t, drains a concurrent or consumed expiry, and
// returns it to the pool in the stopped-and-drained state acquireTimer
// relies on.
func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	recvTimers.Put(t)
}

// accept finishes one receive: it records the arrival with its blocked
// interval. t0 is when the receiver started blocking (0 for the
// queued-message fast path). Allocation-free.
func (c *Comm) accept(m distnet.Message, t0 int64) []float64 {
	var waited int64
	if t0 != 0 {
		waited = obs.Now() - t0
	}
	c.tel.Received(c.curColl, waited, m.Hdr.Seq, m.Hdr.Src, m.Hdr.Step)
	return m.Data
}

// round records one communication round (BSP superstep), closes the rank's
// straggler-diagnostic window (straggler.go), and gives the fault injector
// its crash point: a rank scheduled to crash at round r halts here,
// broadcasting the failure to the world.
func (c *Comm) round() {
	rounds := c.w.counters[c.global].rounds.Add(1)
	c.w.stepNow[c.global].Store(rounds)
	if c.med == nil {
		c.med = make([]int64, c.w.P) // first superstep on this communicator
	}
	c.w.superstep(c.global, rounds, c.med)
	if inj := c.w.opts.Faults; inj != nil && inj.CrashNow(c.global, rounds) {
		metrics.FaultsInjectedTotal.With("crash").Inc()
		c.abort(fmt.Errorf("%w: injected crash on rank %d at round %d", ErrRankFailed, c.global, rounds))
	}
}

// Log returns this rank's event log, for the marks an engine writes itself
// (epochs, checkpoints).
func (c *Comm) Log() *obs.Log { return c.tel.Log }

// StartSpan begins a span on this rank's event log: engines instrument
// their step-sized phases with it unconditionally.
func (c *Comm) StartSpan(name string) obs.Span { return c.tel.Log.Start(name) }

// Counters returns this rank's counters so far, traffic on its
// sub-communicators included; the difference of two reads is the volume of
// what ran between them.
func (c *Comm) Counters() Counters { return c.w.counters[c.global].load() }

// collCall is one collective call in flight: its kind, when it began and
// the rank's counters then.
type collCall struct {
	kind   int
	t0     int64
	before Counters
}

// beginCollective starts a collective call of the given kind: it snapshots
// the clock and the counters, so endCollective can credit the call with the
// bytes and messages it moved, and stacks the kind's code for message
// stamping — nested collectives (allreduce wraps reduce-scatter) restore
// the outer code on end.
func (c *Comm) beginCollective(kind int) collCall {
	c.collStack = append(c.collStack, c.curColl)
	c.curColl = c.tel.coll[kind].Code()
	return collCall{kind: kind, t0: obs.Now(), before: c.Counters()}
}

// endCollective completes one collective call through the kind's
// instrument: the per-call byte delta lands in the collective's histogram
// (the "words per rank per superstep" distribution the Section 7 BSP
// analysis bounds) and on the call's one record, with the message count.
// On a recorded run it also samples the world's cumulative bytes onto the
// trace's "comm bytes" counter timeline.
func (c *Comm) endCollective(call collCall) {
	n := len(c.collStack)
	c.curColl, c.collStack = c.collStack[n-1], c.collStack[:n-1]
	after := c.Counters()
	c.tel.coll[call.kind].Done(call.t0, after.BytesSent-call.before.BytesSent,
		after.MsgsSent-call.before.MsgsSent)
	if obs.Recording() {
		var total int64
		for r := range c.w.counters {
			total += c.w.counters[r].bytes.Load()
		}
		obs.Sample("comm bytes", total)
	}
}
