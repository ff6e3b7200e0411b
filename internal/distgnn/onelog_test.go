package distgnn

import (
	"bytes"
	"errors"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"agnn/internal/dist"
	"agnn/internal/dist/faults"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs"
	"agnn/internal/obs/evlog"
	"agnn/internal/obs/metrics"
)

// site is one row of TestOneRecordPerSite: a level of the stack, what to run
// once, which record of which rank's log the site must have left, and the
// aggregate that one call must have advanced by exactly delta.
type site struct {
	level string
	run   func(t *testing.T)
	rank  int // whose log; -1 = the process log
	kind  evlog.Kind
	name  string
	count int          // records of (kind, name) one run leaves on that log; -1: at least one
	agg   func() int64 // nil: the site has no aggregate of its own
	delta int64        // -1: the record's flops word; -2: the number of records
}

// TestOneRecordPerSite walks the levels of the stack — plan op, row-engine
// plan op, layer, collective, message, superstep, straggler, epoch,
// checkpoint, rank failure. At each, one firing of the site leaves exactly
// the records it should on its rank's log, the always-on ring holds the
// same records (sequence number, times, payload) as the recorded log, and
// the site's aggregate advanced once per firing.
func TestOneRecordPerSite(t *testing.T) {
	a := graph.ErdosRenyi(48, 300, 5)
	h := testFeatures(48, 5)
	cfg := testCfg(gnn.GCN, 1, 5, 6, 3)
	model, err := gnn.New(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	model.Forward(h, false) // compile outside the measured firing
	defer model.ReleasePlans()
	forward := func(*testing.T) { model.Forward(h, false) }

	// One forward per rank of the p×1 grid.
	rows := func(t *testing.T) { runRowGrid(t, 2, a, testCfg(gnn.GCN, 1, 5, 6, 3), h) }

	counter := func(c *metrics.Counter) func() int64 { return c.Value }
	hist := func(h *metrics.Histogram) func() int64 { return func() int64 { return int64(h.Count()) } }

	resilient := func(t *testing.T) {
		spec := resilientSpec(t, 4, 2)
		spec.CheckpointDir, spec.CheckpointEvery = t.TempDir(), 1
		if _, err := TrainResilient(spec); err != nil {
			t.Fatal(err)
		}
	}
	var sent dist.Counters
	sites := []site{
		{level: "plan op", run: forward, rank: -1, kind: evlog.KindOp, name: "gcn.Hout", count: 1,
			agg: counter(metrics.PlanOpsTotal.With("sigma")), delta: 1},
		{level: "plan op flops", run: forward, rank: -1, kind: evlog.KindOp, name: "gcn.Z", count: 1,
			agg: counter(metrics.OpFlopsTotal.With("spmm")), delta: -1 /* the record's B */},
		{level: "row-engine plan op", run: rows, rank: 1, kind: evlog.KindOp, name: "gcn.Hout", count: 1,
			agg: counter(metrics.PlanOpsTotal.With("sigma")), delta: 2 /* one per rank */},
		{level: "layer", run: forward, rank: -1, kind: evlog.KindLayer, name: "layer0.forward(gcn)", count: 1,
			agg: func() int64 { return int64(model.Profile().Stats[0].Calls) }, delta: 1},
		{level: "collective", rank: 0, kind: evlog.KindCollective, name: "allreduce", count: 1,
			run: func(*testing.T) {
				dist.Run(2, func(c *dist.Comm) { c.Allreduce([]float64{1, 2, 3, 4}) })
			},
			agg: hist(metrics.CollectiveBytes.With("allreduce")), delta: 2 /* one per rank */},
		{level: "message send", rank: 0, kind: evlog.KindSend, name: "", count: 1,
			run: func(*testing.T) {
				sent = dist.Run(2, func(c *dist.Comm) {
					if c.Rank() == 0 {
						c.Send(1, []float64{1, 2, 3})
					} else {
						c.Recv(0)
					}
				})[0]
			},
			agg: func() int64 { return sent.BytesSent*1000 + sent.MsgsSent }, delta: 24*1000 + 1},
		{level: "message receive", rank: 1, kind: evlog.KindRecv, name: "", count: 1,
			run: func(*testing.T) {
				dist.Run(2, func(c *dist.Comm) {
					if c.Rank() == 0 {
						c.Send(1, []float64{1, 2, 3})
					} else {
						c.Recv(0)
					}
				})
			},
		},
		{level: "superstep", rank: 0, kind: evlog.KindSuperstep, name: "superstep", count: 1,
			run: func(*testing.T) { dist.Run(2, func(c *dist.Comm) { c.Barrier() }) },
			agg: hist(metrics.RankWaitSeconds.With("0")), delta: 1},
		{level: "straggler", rank: 1, kind: evlog.KindStraggler, name: "straggler-wait", count: -1, /* as many as flagged */
			run: func(t *testing.T) {
				// Ranks 0 and 1 synchronise with each other and so do 2 and 3;
				// rank 0 is late every time, so rank 1 alone waits — far past
				// the default floor, with the cross-rank median near zero.
				_, errs, err := dist.TryRun(4, dist.Options{},
					func(c *dist.Comm) error {
						pair := c.Group([]int{c.Rank() &^ 1, c.Rank() | 1})
						for i := 0; i < 3; i++ {
							if c.Rank() == 0 {
								time.Sleep(20 * time.Millisecond)
							}
							pair.Barrier()
						}
						return nil
					})
				if err != nil || dist.FirstError(errs) != nil {
					t.Fatal(err, errs)
				}
			},
			agg: counter(metrics.StragglersTotal.With("1")), delta: -2 /* the number of records */},
		{level: "epoch", run: resilient, rank: 0, kind: evlog.KindEpoch, name: "epoch", count: 2,
			agg: hist(metrics.EpochSeconds), delta: 2},
		{level: "checkpoint", run: resilient, rank: 3, kind: evlog.KindCheckpoint, name: "checkpoint", count: 2},
		{level: "rank failure", rank: 1, kind: evlog.KindFailure, name: "", count: 1,
			run: func(t *testing.T) {
				inj := faults.New(faults.Spec{Clauses: []faults.Clause{{Kind: faults.Crash, Rank: 1, Round: 2}}}, 1, 2)
				_, errs, err := dist.TryRun(2, dist.Options{Faults: inj, RecvTimeout: 5 * time.Second},
					func(c *dist.Comm) error {
						for i := 0; i < 4; i++ {
							c.Barrier()
						}
						return nil
					})
				if err != nil || !errors.Is(dist.FirstError(errs), dist.ErrRankFailed) {
					t.Fatal(err, errs)
				}
			},
			agg: counter(metrics.RankFailuresTotal), delta: 1},
	}
	for _, s := range sites {
		t.Run(s.level, func(t *testing.T) {
			if s.level == "row-engine plan op" {
				s.run(t) // compile outside the measured firing
			}
			obs.StartRecording()
			defer obs.StopRecording()
			log := obs.Rank(s.rank)
			if s.agg == nil {
				s.agg = func() int64 { return 0 }
			}
			agg0 := s.agg()
			s.run(t)
			obs.StopRecording()

			var got []evlog.Record
			for _, r := range log.Events() {
				if r.Kind == s.kind && r.Name() == s.name {
					got = append(got, r)
				}
			}
			if s.count < 0 && len(got) > 0 {
				s.count = len(got)
			}
			if len(got) != s.count {
				t.Fatalf("the site left %d %v records named %q on rank %d's log, want %d", len(got), s.kind, s.name, s.rank, s.count)
			}
			ring := map[uint64]evlog.Record{}
			for _, r := range log.Ring() {
				ring[r.Seq] = r
			}
			for _, r := range got {
				if ring[r.Seq] != r {
					t.Errorf("the ring holds %+v where the recorded log holds %+v", ring[r.Seq], r)
				}
			}
			want := s.delta
			switch want {
			case -1:
				want = got[0].B
			case -2:
				want = int64(len(got))
			}
			if d := s.agg() - agg0; d != want || (s.delta == -1 && want == 0) {
				t.Errorf("the site's aggregate advanced by %d, want %d", d, want)
			}
			// A checkpoint is marked once: no second record says the same
			// under another kind.
			for _, r := range log.Events() {
				if s.kind == evlog.KindCheckpoint && r.Kind != s.kind && r.Name() == s.name {
					t.Errorf("checkpoint also recorded as %+v", r)
				}
			}
		})
	}
}

// parentFamilies is the set of Prometheus family names WritePrometheus
// emitted after a 2×2 training run before the telemetry stores were merged,
// less the three overlap families of the retired overlapped row
// engine and the plan cache's eviction counter and byte gauge, which left
// with the cache, plus the wire pool's two byte gauges: dashboards and
// agnn-report key on them.
var parentFamilies = strings.Fields(`
	agnn_arena_live_bytes agnn_arena_peak_bytes agnn_checkpoint_seconds agnn_collective_bytes
	agnn_comm_bytes_total agnn_comm_measured_words agnn_comm_msgs_total agnn_comm_predicted_words
	agnn_comm_retries_total agnn_comm_rounds_total agnn_critpath_checkpoint_seconds
	agnn_critpath_collective_seconds agnn_critpath_compute_seconds agnn_critpath_coverage
	agnn_critpath_measured_seconds agnn_critpath_predicted_seconds agnn_critpath_seconds
	agnn_critpath_wait_seconds agnn_epoch_seconds agnn_faults_injected_total agnn_go_gc_cycles_total
	agnn_go_gc_pause_seconds_p50 agnn_go_gc_pause_seconds_p99 agnn_go_goroutines agnn_go_heap_goal_bytes
	agnn_go_heap_live_bytes agnn_go_sched_latency_seconds_p50 agnn_go_sched_latency_seconds_p99
	agnn_layer_measured_seconds agnn_layer_predicted_seconds agnn_net_bytes_total
	agnn_net_dial_retries_total agnn_net_pool_bytes agnn_net_pool_peak_bytes agnn_op_bytes_total agnn_op_flops_total agnn_plan_bytes_total agnn_plan_flops_total
	agnn_plan_nnz_total agnn_plan_op_seconds agnn_plan_ops_total
	agnn_plancache_hits agnn_plancache_misses agnn_rank_failures_total
	agnn_rank_wait_seconds agnn_recovery_seconds agnn_serve_batch_vertices agnn_serve_latency_p50_seconds
	agnn_serve_latency_p99_seconds agnn_serve_rejected_total agnn_serve_request_seconds
	agnn_serve_requests_total agnn_serve_stage_seconds agnn_stragglers_total agnn_train_edges_per_second
	agnn_train_epoch agnn_train_grad_norm agnn_train_loss agnn_wait_imbalance_ratio
	agnn_wire_measured_seconds agnn_wire_predicted_seconds`)

// TestPrometheusFamiliesUnchanged: merging the stores must not rename,
// drop or add a metric family, and the comm families — now read from the
// worlds' counters by a collector instead of counted beside them — must
// hold what the run's ranks sent.
func TestPrometheusFamiliesUnchanged(t *testing.T) {
	sentBefore := metrics.Default.Snapshot().CounterFamily("agnn_comm_bytes_total")
	res, err := TrainResilient(resilientSpec(t, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := metrics.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen[strings.Fields(line)[2]] = true
		}
	}
	var got []string
	for n := range seen {
		got = append(got, n)
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(parentFamilies, " ") {
		t.Fatalf("metric families changed:\ngot  %v\nwant %v", got, parentFamilies)
	}
	sent := metrics.Default.Snapshot().CounterFamily("agnn_comm_bytes_total")
	for r, c := range res.Counters {
		label := strconv.Itoa(r)
		if d := sent[label] - sentBefore[label]; d != c.BytesSent {
			t.Errorf(`agnn_comm_bytes_total{rank="%d"} advanced by %d over a run whose rank sent %d bytes`, r, d, c.BytesSent)
		}
	}
}
