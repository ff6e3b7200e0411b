package fuse

import (
	"fmt"
	"testing"

	"agnn/internal/obs"
)

// BenchmarkRunOpsTelemetry is the cost of a plan op's instrument alone:
// runOps over sixteen ops that do nothing, with recording off (the ring is
// still written) and on (the recorded log too). One iteration is sixteen
// ops; EXPERIMENTS.md "One event log" holds the figures and the parent's.
func BenchmarkRunOpsTelemetry(b *testing.B) {
	list := make([]planOp, 16)
	for i := range list {
		list[i] = planOp{run: func() {}, site: obs.NewOp(obs.Main(), fmt.Sprintf("bench.op%d", i), "mm", 10, 20, 30)}
	}
	for _, recording := range []bool{false, true} {
		name := "off"
		if recording {
			name = "recording"
		}
		b.Run(name, func(b *testing.B) {
			if recording {
				obs.StartRecording()
				defer obs.StopRecording()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if recording && i%4096 == 0 {
					obs.StartRecording() // keep the log under its cap: measure appends, not drops
				}
				runOps(list)
			}
		})
	}
}
