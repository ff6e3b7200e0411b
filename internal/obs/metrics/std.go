package metrics

// Standard instruments: the shared vocabulary the hot-path wiring records
// into and the reporting tools read back. Declaring them here (against the
// Default registry, with get-or-create semantics) keeps the names, help
// strings and bucket layouts in one place; internal/fuse, internal/dist,
// internal/tensor and the CLIs all reference these variables.
var (
	// Compiled-plan execution (internal/fuse).
	PlanOpSeconds = Default.HistogramVec("agnn_plan_op_seconds",
		"Latency of one compiled-plan op execution, by op kind.", "op", DefLatencyBuckets)
	PlanOpsTotal = Default.CounterVec("agnn_plan_ops_total",
		"Compiled-plan ops executed, by op kind.", "op")
	PlanFlopsTotal = Default.Counter("agnn_plan_flops_total",
		"Estimated floating-point operations retired by compiled-plan ops.")
	PlanNNZTotal = Default.Counter("agnn_plan_nnz_total",
		"Sparse non-zeros swept by compiled-plan ops.")
	PlanBytesTotal = Default.Counter("agnn_plan_bytes_total",
		"Estimated bytes moved by compiled-plan ops under the static CSR + dense traffic model.")

	// Roofline accounting (internal/fuse): per-op-class flop and byte
	// totals. GF/s = flops/op-seconds; arithmetic intensity = flops/bytes.
	OpFlopsTotal = Default.CounterVec("agnn_op_flops_total",
		"Estimated floating-point operations retired, by op kind (roofline numerator).", "op")
	OpBytesTotal = Default.CounterVec("agnn_op_bytes_total",
		"Estimated bytes moved under the static traffic model, by op kind (roofline denominator).", "op")

	// Simulated distributed runtime (internal/dist).
	CommBytesTotal = Default.CounterVec("agnn_comm_bytes_total",
		"Bytes sent by each simulated rank.", "rank")
	CommMsgsTotal = Default.CounterVec("agnn_comm_msgs_total",
		"Point-to-point messages sent by each simulated rank.", "rank")
	CommRoundsTotal = Default.CounterVec("agnn_comm_rounds_total",
		"Communication rounds (BSP supersteps) entered by each simulated rank.", "rank")
	CollectiveBytes = Default.HistogramVec("agnn_collective_bytes",
		"Bytes one rank moved in one collective call, by collective kind.",
		"kind", ExpBuckets(64, 4, 12))

	// Straggler and imbalance diagnostics (internal/dist; docs/OBSERVABILITY.md).
	RankWaitSeconds = Default.HistogramVec("agnn_rank_wait_seconds",
		"Blocking receive wait one rank accumulated during one BSP superstep, by rank.",
		"rank", DefLatencyBuckets)
	WaitImbalanceRatio = Default.Gauge("agnn_wait_imbalance_ratio",
		"Max/median cross-rank superstep wait of the most recent completed superstep.")
	StragglersTotal = Default.CounterVec("agnn_stragglers_total",
		"Supersteps in which a rank waited more than the straggler factor times the cross-rank median, by rank.", "rank")

	// Workspace arenas (internal/tensor).
	ArenaLiveBytes = Default.Gauge("agnn_arena_live_bytes",
		"Workspace bytes currently held by plan buffers across all arenas.")
	ArenaPeakBytes = Default.Gauge("agnn_arena_peak_bytes",
		"High-water mark of live workspace bytes.")

	// Training loop (cmd/agnn-train, internal/distgnn).
	TrainEpoch = Default.Gauge("agnn_train_epoch",
		"Last completed training epoch.")
	TrainLoss = Default.Gauge("agnn_train_loss",
		"Training loss of the last completed epoch.")
	TrainGradNorm = Default.Gauge("agnn_train_grad_norm",
		"Global L2 norm of all parameter gradients after the last epoch.")
	TrainEdgesPerSec = Default.Gauge("agnn_train_edges_per_second",
		"Adjacency non-zeros processed per second over the last epoch.")
	EpochSeconds = Default.Histogram("agnn_epoch_seconds",
		"Wall time of one training epoch.", DefLatencyBuckets)

	// Fault tolerance (internal/dist, internal/distgnn, internal/ckpt;
	// docs/ROBUSTNESS.md).
	FaultsInjectedTotal = Default.CounterVec("agnn_faults_injected_total",
		"Faults applied by the deterministic injector, by kind (crash, delay, drop, reorder).", "kind")
	CommRetriesTotal = Default.Counter("agnn_comm_retries_total",
		"Point-to-point send retries after injected transient failures.")
	RankFailuresTotal = Default.Counter("agnn_rank_failures_total",
		"Rank failures detected by the runtime (injected crashes, receive timeouts, retry exhaustion).")
	CheckpointSeconds = Default.Histogram("agnn_checkpoint_seconds",
		"Wall time of one atomic training-state checkpoint write.", DefLatencyBuckets)
	RecoverySeconds = Default.Histogram("agnn_recovery_seconds",
		"Wall time from failure detection to a rebuilt world resuming training from the last checkpoint.", DefLatencyBuckets)

	// Wire transport (internal/dist/net; docs/ROBUSTNESS.md).
	NetDialRetriesTotal = Default.Counter("agnn_net_dial_retries_total",
		"Failed dial attempts during rendezvous bootstrap and post-drop reconnects.")
	NetBytesTotal = Default.CounterVec("agnn_net_bytes_total",
		"Frame bytes moved over the wire transport, by direction (tx, rx).", "dir")
	NetPoolBytes = Default.Gauge("agnn_net_pool_bytes",
		"Bytes of wire buffers (frames and received payloads) the process's pool holds, free and out.")
	NetPoolPeakBytes = Default.Gauge("agnn_net_pool_peak_bytes",
		"High-water mark of agnn_net_pool_bytes.")

	// Cost-model validation: set by internal/costmodel's Validate* calls.
	CommPredictedWords = Default.Gauge("agnn_comm_predicted_words",
		"Cost-model predicted max per-rank words for the run's configuration.")
	CommMeasuredWords = Default.Gauge("agnn_comm_measured_words",
		"Measured max per-rank words for the run.")
	WirePredictedSeconds = Default.Gauge("agnn_wire_predicted_seconds",
		"α-β model predicted wire time for this rank's measured traffic.")
	WireMeasuredSeconds = Default.Gauge("agnn_wire_measured_seconds",
		"Measured wall time this rank spent blocked in socket writes.")

	// Layer-time validation (internal/costmodel).
	LayerPredictedSeconds = Default.Gauge("agnn_layer_predicted_seconds",
		"Cost-model predicted per-layer wall time.")
	LayerMeasuredSeconds = Default.Gauge("agnn_layer_measured_seconds",
		"Measured mean per-layer wall time for the run.")

	// Compiled plans (internal/fuse): a miss compiles one, a hit binds a
	// compiled one to a new adjacency (fuse.Plan.Bind).
	PlanCacheHits = Default.Counter("agnn_plancache_hits",
		"Compiled plans bound to a new adjacency instead of compiling one.")
	PlanCacheMisses = Default.Counter("agnn_plancache_misses",
		"Plans compiled.")

	// Online inference serving (internal/serving, cmd/agnn-serve).
	ServeRequestsTotal = Default.CounterVec("agnn_serve_requests_total",
		"HTTP inference requests handled, by endpoint.", "endpoint")
	ServeRejectedTotal = Default.Counter("agnn_serve_rejected_total",
		"Inference requests rejected with 429 by admission control (queue full).")
	ServeRequestSeconds = Default.HistogramVec("agnn_serve_request_seconds",
		"End-to-end latency of one inference request, by endpoint.", "endpoint", DefLatencyBuckets)
	ServeLatencyP50 = Default.GaugeVec("agnn_serve_latency_p50_seconds",
		"Interpolated median request latency since startup, by endpoint.", "endpoint")
	ServeLatencyP99 = Default.GaugeVec("agnn_serve_latency_p99_seconds",
		"Interpolated 99th-percentile request latency since startup, by endpoint.", "endpoint")
	ServeBatchVertices = Default.Histogram("agnn_serve_batch_vertices",
		"Seed vertices coalesced into one micro-batched plan execution.", ExpBuckets(1, 2, 12))
	ServeStageSeconds = Default.HistogramVec("agnn_serve_stage_seconds",
		"Per-stage serving latency decomposition (queue, batch, expand, plan), by stage.",
		"stage", DefLatencyBuckets)

	// Cross-rank causal critical path (internal/obs/causal;
	// docs/OBSERVABILITY.md). Published when a causally traced run is
	// summarized (CLI Stop, /report, a distributed benchutil.RunSpec).
	CritPathSeconds = Default.Gauge("agnn_critpath_seconds",
		"Total reconstructed critical-path time across the analyzed windows.")
	CritPathComputeSeconds = Default.Gauge("agnn_critpath_compute_seconds",
		"Critical-path time attributed to kernel/compute spans.")
	CritPathCollectiveSeconds = Default.Gauge("agnn_critpath_collective_seconds",
		"Critical-path time attributed to collective hops.")
	CritPathWaitSeconds = Default.Gauge("agnn_critpath_wait_seconds",
		"Critical-path time attributed to blocked receives.")
	CritPathCheckpointSeconds = Default.Gauge("agnn_critpath_checkpoint_seconds",
		"Critical-path time attributed to checkpoint writes.")
	CritPathCoverage = Default.Gauge("agnn_critpath_coverage",
		"Reconstructed path time over analyzed window time (1.0 = exact reconstruction).")

	// costmodel.ValidateCriticalPath: measured epoch critical path vs the
	// α-β-γ model's prediction.
	CritPathPredictedSeconds = Default.Gauge("agnn_critpath_predicted_seconds",
		"Cost-model predicted per-epoch critical-path time.")
	CritPathMeasuredSeconds = Default.Gauge("agnn_critpath_measured_seconds",
		"Measured mean per-epoch critical-path time.")
)
