package metrics

// Go runtime/metrics bridge: GC pauses, scheduler latency, heap size and
// goroutine count land in the Default registry as agnn_go_* gauges, so
// every /metrics scrape and -metrics run-report carries the
// runtime-health context next to the workload metrics — a
// regression in allocation behavior shows up beside the op latencies it
// perturbs. Refreshed by a registry collector (RegisterCollector), i.e.
// exactly when the registry is read; nothing polls in the background.

import rtm "runtime/metrics"

// Go runtime gauges (agnn_go_*).
var (
	GoGCPauseP50 = Default.Gauge("agnn_go_gc_pause_seconds_p50",
		"Median stop-the-world GC pause since process start (runtime/metrics /gc/pauses).")
	GoGCPauseP99 = Default.Gauge("agnn_go_gc_pause_seconds_p99",
		"99th-percentile stop-the-world GC pause since process start.")
	GoSchedLatencyP50 = Default.Gauge("agnn_go_sched_latency_seconds_p50",
		"Median time goroutines spent runnable before running (runtime/metrics /sched/latencies).")
	GoSchedLatencyP99 = Default.Gauge("agnn_go_sched_latency_seconds_p99",
		"99th-percentile goroutine scheduling latency.")
	GoHeapLiveBytes = Default.Gauge("agnn_go_heap_live_bytes",
		"Bytes of live heap objects (runtime/metrics /memory/classes/heap/objects).")
	GoHeapGoalBytes = Default.Gauge("agnn_go_heap_goal_bytes",
		"Heap size target of the current GC cycle (runtime/metrics /gc/heap/goal).")
	GoGoroutines = Default.Gauge("agnn_go_goroutines",
		"Live goroutine count.")
	GoGCCycles = Default.Gauge("agnn_go_gc_cycles_total",
		"Completed GC cycles since process start.")
)

// goSamples is the fixed sample batch read from runtime/metrics on every
// collection; the slice is package-owned, so collection does not allocate
// after init (collectors run serially under the registry's collect()).
var goSamples = []rtm.Sample{
	{Name: "/gc/pauses:seconds"},
	{Name: "/sched/latencies:seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/heap/goal:bytes"},
	{Name: "/sched/goroutines:goroutines"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func init() {
	Default.RegisterCollector(collectGoRuntime)
}

// collectGoRuntime refreshes the agnn_go_* gauges from runtime/metrics.
func collectGoRuntime() {
	rtm.Read(goSamples)
	for _, s := range goSamples {
		switch s.Name {
		case "/gc/pauses:seconds":
			if s.Value.Kind() == rtm.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				GoGCPauseP50.Set(histQuantile(h, 0.50))
				GoGCPauseP99.Set(histQuantile(h, 0.99))
			}
		case "/sched/latencies:seconds":
			if s.Value.Kind() == rtm.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				GoSchedLatencyP50.Set(histQuantile(h, 0.50))
				GoSchedLatencyP99.Set(histQuantile(h, 0.99))
			}
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == rtm.KindUint64 {
				GoHeapLiveBytes.Set(float64(s.Value.Uint64()))
			}
		case "/gc/heap/goal:bytes":
			if s.Value.Kind() == rtm.KindUint64 {
				GoHeapGoalBytes.Set(float64(s.Value.Uint64()))
			}
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == rtm.KindUint64 {
				GoGoroutines.Set(float64(s.Value.Uint64()))
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == rtm.KindUint64 {
				GoGCCycles.Set(float64(s.Value.Uint64()))
			}
		}
	}
}

// histQuantile extracts an approximate quantile from a runtime/metrics
// histogram: the lower bound of the bucket holding the q-th sample
// (0 when the histogram is empty). Infinite bucket edges fall back to
// the adjacent finite edge.
func histQuantile(h *rtm.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > target {
			lo := h.Buckets[i]
			hi := h.Buckets[i+1]
			switch {
			case lo > -1e308 && lo < 1e308:
				return lo
			case hi > -1e308 && hi < 1e308:
				return hi
			default:
				return 0
			}
		}
	}
	for i := len(h.Buckets) - 1; i >= 0; i-- {
		if b := h.Buckets[i]; b > -1e308 && b < 1e308 {
			return b
		}
	}
	return 0
}
