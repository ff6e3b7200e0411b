package dist

import (
	"fmt"
	"testing"

	"agnn/internal/obs"
)

// roundsOf runs one collective on p ranks and returns the per-rank Rounds
// counters (which must agree across ranks: every rank enters the same BSP
// supersteps).
func roundsOf(t *testing.T, p int, f func(c *Comm)) int64 {
	t.Helper()
	cs := Run(p, f)
	want := cs[0].Rounds
	for r, c := range cs {
		if c.Rounds != want {
			t.Fatalf("rank %d entered %d rounds, rank 0 entered %d", r, c.Rounds, want)
		}
	}
	return want
}

// TestCollectiveRoundCounts pins each collective to the round count its
// volume-optimal algorithm promises (package doc): one superstep for the
// single-phase ones (gather, allgather, reduce-scatter, broadcast,
// all-to-all), two for the composed ones (allreduce and reduce, which run
// reduce-scatter followed by an allgather/gather phase).
func TestCollectiveRoundCounts(t *testing.T) {
	const p = 4
	const n = 64
	cases := []struct {
		name string
		f    func(c *Comm)
		want int64
	}{
		{"barrier", func(c *Comm) { c.Barrier() }, 1},
		{"bcast", func(c *Comm) { c.Bcast(seq(n, float64(c.Rank())), 0) }, 1},
		{"allgather", func(c *Comm) { c.Allgather(seq(n, float64(c.Rank()))) }, 1},
		{"allgather_into", func(c *Comm) { c.AllgatherInto(seq(n, float64(c.Rank()))) }, 1},
		{"reduce_scatter", func(c *Comm) { c.ReduceScatterInto(seq(n, float64(c.Rank()))) }, 1},
		{"allreduce", func(c *Comm) { c.Allreduce(seq(n, float64(c.Rank()))) }, 2},
		{"reduce", func(c *Comm) { c.ReduceInto(seq(n, float64(c.Rank())), 0) }, 2},
		{"gatherv", func(c *Comm) { c.Gatherv(seq(n, float64(c.Rank())), 0) }, 1},
		{"alltoallv", func(c *Comm) {
			out := make([][]float64, p)
			for r := 0; r < p; r++ {
				out[r] = seq(n, float64(c.Rank()*p+r))
			}
			c.Alltoallv(out)
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := roundsOf(t, p, tc.f); got != tc.want {
				t.Fatalf("%s recorded %d rounds per rank, want %d", tc.name, got, tc.want)
			}
		})
	}
}

// TestRoundsCountersAccumulate checks Rounds flows through Add/Max/Total
// like the other counters.
func TestRoundsCountersAccumulate(t *testing.T) {
	cs := Run(4, func(c *Comm) {
		c.Barrier()
		c.Allreduce(seq(16, 0))
	})
	if got := MaxCounters(cs).Rounds; got != 3 {
		t.Fatalf("max rounds = %d, want 3 (barrier + allreduce's two phases)", got)
	}
	if got := TotalCounters(cs).Rounds; got != 12 {
		t.Fatalf("total rounds = %d, want 12", got)
	}
}

// TestRunTracedRecordsPerRankCollectives checks the recorded run of a
// world: each rank gets its own track, collective spans carry byte/message
// deltas, and the per-track byte totals in the report match the rank
// counters.
func TestRunTracedRecordsPerRankCollectives(t *testing.T) {
	const p = 4
	obs.StartRecording()
	cs := Run(p, func(c *Comm) {
		c.Allreduce(seq(32, float64(c.Rank())))
	})
	obs.StopRecording()

	rep := obs.BuildReport()
	if len(rep.Tracks) != p+1 { // main + one per rank
		t.Fatalf("got %d tracks, want %d", len(rep.Tracks), p+1)
	}
	spanStats := map[string]obs.SpanStat{}
	for _, s := range rep.Spans {
		spanStats[s.Name] = s
	}
	if spanStats["allreduce"].Count != p {
		t.Fatalf("allreduce span count = %d, want %d", spanStats["allreduce"].Count, p)
	}
	if spanStats["reduce_scatter"].Count != p {
		t.Fatalf("nested reduce_scatter span count = %d, want %d",
			spanStats["reduce_scatter"].Count, p)
	}
	byTrack := map[string]obs.TrackStat{}
	for _, ts := range rep.Tracks {
		byTrack[ts.Track] = ts
	}
	for r := 0; r < p; r++ {
		name := fmt.Sprintf("rank %d", r)
		ts, ok := byTrack[name]
		if !ok {
			t.Fatalf("no track stats for %q", name)
		}
		// The outer allreduce span's delta covers all bytes the rank sent;
		// the nested reduce_scatter span counts its share again.
		if ts.Attrs["bytes"] < cs[r].BytesSent {
			t.Fatalf("rank %d track bytes %d < counter bytes %d",
				r, ts.Attrs["bytes"], cs[r].BytesSent)
		}
		if ts.Attrs["msgs"] == 0 {
			t.Fatalf("rank %d track has no message attribute", r)
		}
	}
}
