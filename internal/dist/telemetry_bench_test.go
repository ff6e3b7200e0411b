package dist

import (
	"testing"

	"agnn/internal/obs"
)

// BenchmarkSendRecvTelemetry is the cost of a message's instrument alone: a
// self-send and its receive with an empty payload, recording off (one atomic
// load per side decides to write nothing) and on (a send and a receive
// record). EXPERIMENTS.md "One event log" holds the figures and the parent's.
func BenchmarkSendRecvTelemetry(b *testing.B) {
	for _, recording := range []bool{false, true} {
		name := "off"
		if recording {
			name = "recording"
		}
		b.Run(name, func(b *testing.B) {
			w, err := NewWorld(2)
			if err != nil {
				b.Fatal(err)
			}
			c := w.Comm(0)
			payload := make([]float64, 0)
			if recording {
				obs.StartRecording()
				defer obs.StopRecording()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if recording && i%65536 == 0 {
					obs.StartRecording() // keep the log under its cap: measure appends, not drops
				}
				c.Send(0, payload)
				c.Recv(0)
			}
		})
	}
}
