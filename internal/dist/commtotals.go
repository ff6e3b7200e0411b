package dist

import (
	"maps"
	"strconv"
	"sync"

	"agnn/internal/obs/metrics"
)

// The agnn_comm_{bytes,msgs,rounds}_total families are read, not counted:
// a registry collector (run before every snapshot and scrape) advances each
// rank's series to what the worlds that have finished running counted for
// that rank plus what the running ones have counted so far. A message's
// bytes are therefore added in one place, World.counters.
var comm = struct {
	sync.Mutex
	running map[*World]struct{}
	done    map[int]Counters // by rank: what finished runs counted
}{running: map[*World]struct{}{}, done: map[int]Counters{}}

func init() { metrics.Default.RegisterCollector(collectComm) }

// enter registers the world as running (TryRun, TryRunLocal); retire, when
// the run returns, moves what its ranks counted into the finished totals. A
// world runs once: TryRun builds its own, TryRunLocal ends with a goodbye.
func (w *World) enter() {
	comm.Lock()
	comm.running[w] = struct{}{}
	comm.Unlock()
}

func (w *World) retire() {
	comm.Lock()
	delete(comm.running, w)
	w.addTo(comm.done)
	comm.Unlock()
}

// addTo adds the counters of the world's ranks to total. A rank that never
// sent — every rank a net world does not host — gets no entry.
func (w *World) addTo(total map[int]Counters) {
	for r := range w.counters {
		if c := w.counters[r].load(); c != (Counters{}) {
			total[r] = total[r].Add(c)
		}
	}
}

// collectComm advances the three families to finished + running.
func collectComm() {
	comm.Lock()
	defer comm.Unlock()
	now := maps.Clone(comm.done)
	for w := range comm.running {
		w.addTo(now)
	}
	advance := func(c *metrics.Counter, to int64) { c.Add(to - c.Value()) }
	for r, c := range now {
		label := strconv.Itoa(r)
		advance(metrics.CommBytesTotal.With(label), c.BytesSent)
		advance(metrics.CommMsgsTotal.With(label), c.MsgsSent)
		advance(metrics.CommRoundsTotal.With(label), c.Rounds)
	}
}
