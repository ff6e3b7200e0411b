// Package faults is the deterministic fault injector of the simulated
// distributed runtime (docs/ROBUSTNESS.md). A Spec — parsed from a compact
// string such as
//
//	crash:rank=3,round=12;delay:p=0.01,ms=5;drop:p=0.005,max=2
//
// — describes which faults to inject; an Injector seeded with the spec
// answers the runtime's per-event questions ("should this send be delayed?
// dropped? should this rank crash at this superstep?") from per-rank RNG
// streams, so a given (spec, seed) pair replays the same fault schedule on
// every run regardless of goroutine interleaving across ranks.
//
// Injected faults never corrupt payloads: delays stretch time, drops force
// bounded retransmission of an identical message, and crashes stop a rank
// at a chosen BSP round. A fault-injected run that completes therefore
// produces bitwise-identical results to a fault-free run — the property the
// checkpoint/resume determinism tests assert.
//
// The package deliberately does not import internal/dist: dist imports
// faults and applies the decisions, keeping the injector a pure, easily
// testable policy object.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind string

// Fault kinds. Crash halts a rank at a chosen communication round (BSP
// superstep count); Delay sleeps before a send (straggler emulation); Drop
// fails a send transiently, forcing the runtime's bounded retry.
const (
	Crash Kind = "crash"
	Delay Kind = "delay"
	Drop  Kind = "drop"
)

// Wire-level fault kinds, applied by the TCP transport (internal/dist/net)
// at the socket layer rather than by the BSP runtime. ConnDrop closes the
// connection immediately before a frame write, forcing the transport's
// redial-and-resend path; SlowSock stalls socket writes (wire-level
// straggler emulation); Partition stalls every outbound write of one rank
// — heartbeats included — for a window, so peers exercise their liveness
// timeout.
const (
	ConnDrop  Kind = "conndrop"
	SlowSock  Kind = "slowsock"
	Partition Kind = "partition"
)

// Clause is one parsed fault directive.
type Clause struct {
	Kind  Kind
	Rank  int           // target rank; -1 = any rank (delay/slowsock)
	Round int64         // crash: the communication round to crash at
	P     float64       // delay/drop/conndrop/slowsock: per-event probability
	Dur   time.Duration // delay: sleep duration
	Max   int           // drop: max consecutive drops of one message (bounds retries)
}

// Spec is a parsed fault specification.
type Spec struct {
	Clauses []Clause
}

// Empty reports whether the spec injects nothing.
func (s Spec) Empty() bool { return len(s.Clauses) == 0 }

// String renders the spec back into the grammar it was parsed from.
func (s Spec) String() string {
	var parts []string
	for _, c := range s.Clauses {
		switch c.Kind {
		case Crash:
			parts = append(parts, fmt.Sprintf("crash:rank=%d,round=%d", c.Rank, c.Round))
		case Delay:
			p := fmt.Sprintf("delay:p=%g,ms=%g", c.P, float64(c.Dur)/float64(time.Millisecond))
			if c.Rank >= 0 {
				p += fmt.Sprintf(",rank=%d", c.Rank)
			}
			parts = append(parts, p)
		case Drop:
			parts = append(parts, fmt.Sprintf("drop:p=%g,max=%d", c.P, c.Max))
		case ConnDrop:
			parts = append(parts, fmt.Sprintf("conndrop:p=%g,max=%d", c.P, c.Max))
		case SlowSock:
			p := fmt.Sprintf("slowsock:p=%g,ms=%g", c.P, float64(c.Dur)/float64(time.Millisecond))
			if c.Rank >= 0 {
				p += fmt.Sprintf(",rank=%d", c.Rank)
			}
			parts = append(parts, p)
		case Partition:
			parts = append(parts, fmt.Sprintf("partition:rank=%d,ms=%g", c.Rank, float64(c.Dur)/float64(time.Millisecond)))
		}
	}
	return strings.Join(parts, ";")
}

// Parse reads a fault spec string. The grammar is
//
//	spec    := clause (';' clause)*
//	clause  := kind ':' param (',' param)*
//	param   := key '=' value
//	kind    := 'crash' | 'delay' | 'drop' | 'conndrop' | 'slowsock' | 'partition'
//
// with per-kind parameters:
//
//	crash:rank=<int>,round=<int>      halt rank at its round-th superstep
//	delay:p=<float>,ms=<float>[,rank=<int>]   sleep ms before a send, prob p
//	drop:p=<float>[,max=<int>]        fail a send transiently, prob p,
//	                                  at most max consecutive drops (default 2)
//	conndrop:p=<float>[,max=<int>]    close the socket before a frame write,
//	                                  prob p, at most max consecutive (default 2)
//	slowsock:p=<float>,ms=<float>[,rank=<int>]   stall a socket write, prob p
//	partition:rank=<int>,ms=<float>   stall all of rank's outbound writes
//	                                  (heartbeats included) for a one-shot window
//
// An empty string parses to an empty spec.
func Parse(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, raw := range strings.Split(s, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		kind, rest, _ := strings.Cut(raw, ":")
		params := map[string]string{}
		if rest != "" {
			for _, kv := range strings.Split(rest, ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return Spec{}, fmt.Errorf("faults: clause %q: parameter %q is not key=value", raw, kv)
				}
				params[strings.TrimSpace(k)] = strings.TrimSpace(v)
			}
		}
		getInt := func(key string, def int64) (int64, error) {
			v, ok := params[key]
			if !ok {
				return def, nil
			}
			delete(params, key)
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("faults: clause %q: %s=%q is not an integer", raw, key, v)
			}
			return n, nil
		}
		getFloat := func(key string, def float64) (float64, error) {
			v, ok := params[key]
			if !ok {
				return def, nil
			}
			delete(params, key)
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("faults: clause %q: %s=%q is not a number", raw, key, v)
			}
			return f, nil
		}
		// toDur converts ms to a duration, or to 0 when ms is not a positive
		// span time.Duration can hold (NaN, 1e20, a fraction of a nanosecond).
		toDur := func(ms float64) time.Duration {
			if !(ms > 0 && ms <= float64(math.MaxInt64/int64(time.Millisecond))) {
				return 0
			}
			return time.Duration(ms * float64(time.Millisecond))
		}
		c := Clause{Kind: Kind(strings.TrimSpace(kind)), Rank: -1}
		var err error
		switch c.Kind {
		case Crash:
			var rank, round int64
			if rank, err = getInt("rank", -1); err != nil {
				return Spec{}, err
			}
			if round, err = getInt("round", -1); err != nil {
				return Spec{}, err
			}
			if rank < 0 || round < 0 {
				return Spec{}, fmt.Errorf("faults: clause %q: crash needs rank= and round=", raw)
			}
			c.Rank, c.Round = int(rank), round
		case Delay:
			var ms float64
			var rank int64
			if c.P, err = getFloat("p", 1); err != nil {
				return Spec{}, err
			}
			if ms, err = getFloat("ms", 0); err != nil {
				return Spec{}, err
			}
			if rank, err = getInt("rank", -1); err != nil {
				return Spec{}, err
			}
			if c.Dur = toDur(ms); c.Dur == 0 {
				return Spec{}, fmt.Errorf("faults: clause %q: delay needs ms>0", raw)
			}
			c.Rank = int(rank)
		case Drop:
			var max int64
			if c.P, err = getFloat("p", 0); err != nil {
				return Spec{}, err
			}
			if max, err = getInt("max", 2); err != nil {
				return Spec{}, err
			}
			if c.P <= 0 {
				return Spec{}, fmt.Errorf("faults: clause %q: drop needs p>0", raw)
			}
			if max < 1 {
				return Spec{}, fmt.Errorf("faults: clause %q: drop needs max>=1", raw)
			}
			c.Max = int(max)
		case ConnDrop:
			var max int64
			if c.P, err = getFloat("p", 0); err != nil {
				return Spec{}, err
			}
			if max, err = getInt("max", 2); err != nil {
				return Spec{}, err
			}
			if c.P <= 0 {
				return Spec{}, fmt.Errorf("faults: clause %q: conndrop needs p>0", raw)
			}
			if max < 1 {
				return Spec{}, fmt.Errorf("faults: clause %q: conndrop needs max>=1", raw)
			}
			c.Max = int(max)
		case SlowSock:
			var ms float64
			var rank int64
			if c.P, err = getFloat("p", 1); err != nil {
				return Spec{}, err
			}
			if ms, err = getFloat("ms", 0); err != nil {
				return Spec{}, err
			}
			if rank, err = getInt("rank", -1); err != nil {
				return Spec{}, err
			}
			if c.Dur = toDur(ms); c.Dur == 0 {
				return Spec{}, fmt.Errorf("faults: clause %q: slowsock needs ms>0", raw)
			}
			c.Rank = int(rank)
		case Partition:
			var ms float64
			var rank int64
			if rank, err = getInt("rank", -1); err != nil {
				return Spec{}, err
			}
			if ms, err = getFloat("ms", 0); err != nil {
				return Spec{}, err
			}
			if c.Dur = toDur(ms); rank < 0 || c.Dur == 0 {
				return Spec{}, fmt.Errorf("faults: clause %q: partition needs rank= and ms>0", raw)
			}
			c.Rank = int(rank)
		default:
			return Spec{}, fmt.Errorf("faults: unknown fault kind %q in clause %q", kind, raw)
		}
		if len(params) > 0 {
			for k := range params {
				return Spec{}, fmt.Errorf("faults: clause %q: unknown parameter %q", raw, k)
			}
		}
		if !(c.P >= 0 && c.P <= 1) { // NaN included
			return Spec{}, fmt.Errorf("faults: clause %q: probability %g outside [0,1]", raw, c.P)
		}
		spec.Clauses = append(spec.Clauses, c)
	}
	return spec, nil
}

// MaxDrops returns the largest max parameter over drop clauses (0 when the
// spec has none) — the retry budget the runtime must exceed for bounded
// retransmission to always succeed.
func (s Spec) MaxDrops() int {
	m := 0
	for _, c := range s.Clauses {
		if c.Kind == Drop && c.Max > m {
			m = c.Max
		}
	}
	return m
}

// SendAction is the injector's decision for one point-to-point send attempt.
type SendAction struct {
	Delay time.Duration // sleep this long before sending (0 = none)
	Drop  bool          // fail this attempt transiently (caller retries)
}

// WireAction is the injector's decision for one outbound frame write at
// the socket layer (TCP transport only).
type WireAction struct {
	Delay time.Duration // stall the socket write this long (slowsock, partition)
	Drop  bool          // close the connection before writing (caller redials and resends)
}

// Injector applies a Spec deterministically. Each rank draws from its own
// seeded RNG stream (guarded by a per-rank mutex: a rank's main goroutine
// and its chunked-gather helper may both consult the stream), so fault
// decisions on rank r do not depend on the scheduling of other ranks.
// Crash clauses fire exactly once per Injector lifetime: a training loop
// that rebuilds the world after a failure keeps the same Injector, so the
// crash does not re-fire on the recovered incarnation.
type Injector struct {
	spec Spec
	seed int64

	mu      []sync.Mutex
	rngs    []*rand.Rand
	crashed []sync.Once // one per crash clause

	// Partition windows are one-shot per clause: the window opens at the
	// target rank's first wire action and every subsequent write stalls
	// until it closes.
	partMu    sync.Mutex
	partStart []time.Time // one per clause (zero until armed; only partition entries used)
}

// maxRanks bounds the lazily sized per-rank state; the simulated runtime
// never exceeds a few hundred ranks.
const maxRanks = 1 << 12

// New builds an injector for up to p ranks.
func New(spec Spec, seed int64, p int) *Injector {
	if p < 1 || p > maxRanks {
		p = maxRanks
	}
	in := &Injector{
		spec:      spec,
		seed:      seed,
		mu:        make([]sync.Mutex, p),
		rngs:      make([]*rand.Rand, p),
		crashed:   make([]sync.Once, len(spec.Clauses)),
		partStart: make([]time.Time, len(spec.Clauses)),
	}
	for r := 0; r < p; r++ {
		// Distinct, reproducible stream per rank.
		in.rngs[r] = rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	}
	return in
}

// Spec returns the injector's parsed spec.
func (in *Injector) Spec() Spec { return in.spec }

// roll draws a uniform [0,1) sample from rank's stream.
func (in *Injector) roll(rank int) float64 {
	if rank < 0 || rank >= len(in.rngs) {
		return 1 // out of managed range: never fires
	}
	in.mu[rank].Lock()
	v := in.rngs[rank].Float64()
	in.mu[rank].Unlock()
	return v
}

// OnSend decides the fate of one send attempt from rank. attempt is 1-based
// and increments across retries of the same message; drop clauses stop
// firing once attempt exceeds their max, so retransmission always succeeds
// within a bounded number of retries.
func (in *Injector) OnSend(rank, attempt int) SendAction {
	var act SendAction
	for _, c := range in.spec.Clauses {
		switch c.Kind {
		case Delay:
			if c.Rank >= 0 && c.Rank != rank {
				continue
			}
			if in.roll(rank) < c.P {
				act.Delay += c.Dur
			}
		case Drop:
			if attempt <= c.Max && in.roll(rank) < c.P {
				act.Drop = true
			}
		}
	}
	return act
}

// CrashNow reports whether rank should crash upon entering its round-th
// communication round. Each crash clause fires at most once per Injector.
func (in *Injector) CrashNow(rank int, round int64) bool {
	for i, c := range in.spec.Clauses {
		if c.Kind != Crash || c.Rank != rank || round < c.Round {
			continue
		}
		fired := false
		in.crashed[i].Do(func() { fired = true })
		if fired {
			return true
		}
	}
	return false
}

// OnWire decides the fate of one outbound frame write from rank at the
// socket layer. attempt is 1-based and increments across redial-and-resend
// retries of the same frame; conndrop clauses stop firing once attempt
// exceeds their max, so resends succeed within a bounded number of
// reconnects. Partition clauses arm on the target rank's first wire action
// and stall every write until their window closes.
func (in *Injector) OnWire(rank, attempt int) WireAction {
	var act WireAction
	for i, c := range in.spec.Clauses {
		switch c.Kind {
		case SlowSock:
			if c.Rank >= 0 && c.Rank != rank {
				continue
			}
			if in.roll(rank) < c.P {
				act.Delay += c.Dur
			}
		case ConnDrop:
			if attempt <= c.Max && in.roll(rank) < c.P {
				act.Drop = true
			}
		case Partition:
			if c.Rank != rank {
				continue
			}
			in.partMu.Lock()
			if in.partStart[i].IsZero() {
				in.partStart[i] = time.Now()
			}
			remain := c.Dur - time.Since(in.partStart[i])
			in.partMu.Unlock()
			if remain > 0 {
				act.Delay += remain
			}
		}
	}
	return act
}

// HasWire reports whether the spec contains any wire-level clause, so the
// transport only installs its fault hook when one exists.
func (s Spec) HasWire() bool {
	for _, c := range s.Clauses {
		switch c.Kind {
		case ConnDrop, SlowSock, Partition:
			return true
		}
	}
	return false
}
