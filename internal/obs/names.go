package obs

// Span names, one per stage boundary in a frame's or transaction's life.
// The taxonomy is documented in the README's Observability section; keep
// the two in sync.
const (
	SpanFrameRoot     = "frame.root"      // per-frame root on the node running the pipeline (its ID anchors the frame's tree)
	SpanClientFrame   = "client.frame"    // client-side root: submit → final reply received
	SpanRPCCloud      = "rpc.cloud"       // edge-side cloud round trip (request out → response in)
	SpanCloudRequest  = "cloud.request"   // cloud-side handling of one validation request (tag section=<k>)
	SpanFrameIngest   = "frame.ingest"    // client→edge transfer of one frame
	SpanPoolWait      = "edge.pool.wait"  // waiting for an edge inference slot
	SpanEdgeDetect    = "edge.detect"     // compact-model inference
	SpanInitialTxn    = "txn.initial"     // initial section (edge answer commit)
	SpanFinalTxn      = "txn.final"       // final section (cloud correction commit)
	SpanSectionTxn    = "txn.section"     // one graph section's boundary commit (tag section=<k>)
	SpanNodeDetect    = "node.detect"     // a graph node's model inference (tag section=<k>)
	SpanLockWait      = "lock.wait"       // lock acquisition incl. wait-die waits
	SpanLockAbort     = "lock.abort"      // wait-die abort during acquisition
	SpanUplink        = "uplink.transfer" // edge→cloud frame shipment
	SpanBatchQueue    = "batch.queue"     // batcher enqueue→dispatch wait
	SpanBatchRun      = "batch.run"       // batched cloud inference
	SpanBatchShed     = "batch.shed"      // admission-control shed
	SpanCloudValidate = "cloud.validate"  // full validation incl. return link
	SpanTwoPC         = "twopc.commit"    // prepare/commit fan-out rounds
	SpanWALReplay     = "wal.replay"      // crash-recovery WAL replay
	SpanRetraction    = "retract.cascade" // dependency-ordered retraction
	SpanQuiesce       = "migrate.quiesce" // shard migration: draining intents
	SpanCutover       = "migrate.cutover" // shard migration: frozen copy+flip
)

// Metric names. Tags are drawn from {edge, camera, protocol, component,
// transport, section}; every name is prefixed croesus_ so scrapes are
// greppable. The section tag carries the graph-section index ("0", "1", …)
// on the per-section span and metric families below.
const (
	MetricFrames         = "croesus_frames_total"
	MetricFramesShed     = "croesus_frames_shed_total"
	MetricFramesLost     = "croesus_frames_lost_total"
	MetricFramesValid    = "croesus_frames_validated_total"
	MetricTxns           = "croesus_txns_total"
	MetricApologies      = "croesus_apologies_total"
	MetricEdgeQueueDepth = "croesus_edge_queue_depth"    // gauge: frames waiting for an inference slot, per edge
	MetricBatcherDepth   = "croesus_batcher_queue_depth" // gauge: validations queued at the cloud batcher
	MetricBatcherInfl    = "croesus_batcher_inflight"    // gauge: batches currently running
	MetricBatches        = "croesus_batches_total"       // counter: batches dispatched
	MetricInitialLatency = "croesus_initial_latency_seconds"
	MetricFinalLatency   = "croesus_final_latency_seconds"
	MetricSectionLatency = "croesus_section_latency_seconds"   // histogram, tag section=<index> (graph executor)
	MetricSectionCommit  = "croesus_section_commits_total"     // counter, tag section=<index> (graph executor)
	MetricComponent      = "croesus_latency_component_seconds" // histogram, component=compute|queue|lock|twopc|network
	MetricTwoPCRounds    = "croesus_twopc_rounds_total"
	MetricPrepareRPCs    = "croesus_twopc_prepare_rpcs_total"
	MetricCommitRPCs     = "croesus_twopc_commit_rpcs_total"
	MetricLockRPCs       = "croesus_twopc_lock_rpcs_total"
	MetricTxnAborts      = "croesus_txn_aborts_total"
	MetricMapRetries     = "croesus_shardmap_retries_total"
	MetricCommitsLocal   = "croesus_commits_local_total"
	MetricCommitsCross   = "croesus_commits_cross_edge_total"
	MetricCommitsRemote  = "croesus_commits_remote_total"
	MetricTransportMsgs  = "croesus_transport_messages_total" // tag transport=sim: modeled link traffic
	MetricTransportBytes = "croesus_transport_bytes_total"
	MetricFaultCrashes   = "croesus_fault_crashes_total"
	MetricFaultRecover   = "croesus_fault_recoveries_total"
	MetricWALAppends     = "croesus_wal_appends_total"
	MetricWALReplayed    = "croesus_wal_records_replayed_total"
	MetricMigrations     = "croesus_shard_migrations_total"
	// MetricDroppedSeries counts metric series the registry refused to
	// create past the per-metric cardinality cap (DefaultMaxSeries).
	MetricDroppedSeries = "croesus_obs_dropped_series_total"
)
