package obs

import (
	"agnn/internal/obs/causal"
	"agnn/internal/obs/evlog"
	"agnn/internal/obs/metrics"
)

// CriticalPath reconstructs the cross-rank critical path of the recorded
// run (internal/obs/causal reads the rank logs: message records are the
// edges, timed records the attribution). Returns nil when no rank recorded
// a message or a mark.
func CriticalPath() *CritPath { return causal.Analyze(evlog.Default, causal.Options{}) }

// PublishCriticalPath sets the agnn_critpath_* gauges from a summary.
// No-op on nil.
func PublishCriticalPath(s *CritPath) {
	if s == nil {
		return
	}
	metrics.CritPathSeconds.Set(float64(s.PathNs) / 1e9)
	metrics.CritPathComputeSeconds.Set(float64(s.ComputeNs) / 1e9)
	metrics.CritPathCollectiveSeconds.Set(float64(s.CollectiveNs) / 1e9)
	metrics.CritPathWaitSeconds.Set(float64(s.WaitNs) / 1e9)
	metrics.CritPathCheckpointSeconds.Set(float64(s.CheckpointNs) / 1e9)
	metrics.CritPathCoverage.Set(s.Coverage)
}
