package dist

// Straggler and imbalance diagnostics: every rank times the blocking
// portion of its receives, and on each BSP superstep boundary (round) the
// accumulated wait is published as a per-rank histogram, compared against
// the cross-rank median, and — when one rank waited far longer than its
// peers — flagged as a straggler in both the metrics registry and the
// rank's event log. This is the runtime answer to "which rank stalled and
// by how much" for slow and fault-injected runs (docs/OBSERVABILITY.md): a rank
// that waits is a rank whose *peers* are slow, so the straggler event
// names the victim and the dump shows the perpetrator's lane.

import (
	"time"

	"agnn/internal/obs/metrics"
)

// Straggler detection thresholds.
const (
	// DefaultStragglerFactor flags a rank when its superstep wait exceeds
	// this multiple of the cross-rank median wait.
	DefaultStragglerFactor = 4.0
	// DefaultStragglerFloor suppresses detections below this absolute
	// wait: scheduling jitter makes sub-100µs ratios meaningless.
	DefaultStragglerFloor = 100 * time.Microsecond
)

// noteWait adds one blocked-receive duration to the rank's current
// superstep accumulator. Two atomic adds; called on the Recv hot path.
func (w *World) noteWait(rank int, ns int64) {
	if ns > 0 {
		w.waitNs[rank].Add(ns)
	}
}

// superstep closes rank's current superstep: it drains the wait
// accumulator into the rank's superstep site, then compares
// the wait against the cross-rank median of last-superstep waits (scratch
// is the caller's preallocated sort buffer, so the steady state does not
// allocate). Detected stragglers increment the rank's counter and leave a
// straggler event on its log; the max/median ratio lands on the
// imbalance gauge.
func (w *World) superstep(rank int, round int64, scratch []int64) {
	wait := w.waitNs[rank].Swap(0)
	w.lastWait[rank].Store(wait)
	w.tel[rank].Superstep(round, wait)
	if w.local >= 0 {
		// Wire-transport world: peer waits live in other processes, so the
		// cross-rank median is unknowable here. Per-rank wait histograms and
		// superstep events still record; cross-rank straggler attribution is
		// an offline merge of the per-process dumps.
		return
	}

	maxW := int64(0)
	for r := 0; r < w.P; r++ {
		v := w.lastWait[r].Load()
		scratch[r] = v
		if v > maxW {
			maxW = v
		}
	}
	// Insertion sort: p is small and the slice is reused, so this is the
	// cheapest allocation-free median.
	for i := 1; i < len(scratch); i++ {
		for j := i; j > 0 && scratch[j-1] > scratch[j]; j-- {
			scratch[j-1], scratch[j] = scratch[j], scratch[j-1]
		}
	}
	median := scratch[len(scratch)/2]
	if median > 0 {
		metrics.WaitImbalanceRatio.Set(float64(maxW) / float64(median))
	}
	// A zero median (peers not waiting at all) does not suppress detection:
	// a rank blocked past the absolute floor while the median rank sails
	// through is the sharpest straggler signal there is.
	if wait >= DefaultStragglerFloor.Nanoseconds() && float64(wait) > DefaultStragglerFactor*float64(median) {
		w.tel[rank].Straggler(wait, median, round)
	}
}
