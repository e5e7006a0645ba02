package main

// This file is the benchmark's vocabulary: every workload and metric
// the command can print, by name, with its unit and direction. The
// BENCHMARK.json at the repository root lists the same names and
// TestBenchmarkJSONMatchesCatalog keeps the two in step.

// workloadDef names one traffic mix and says why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(*run) error
}

var workloads = []workloadDef{
	{"ingest_wal", "closed-loop binary POSTs into a batch-fsync WAL, then crash recovery: wal and live admission do the work", runIngest(encodeBinary, walBatch, true)},
	{"ingest_jsonl", "closed-loop gzip JSONL POSTs with no WAL: wire decode does the work and wal is bypassed", runIngest(encodeJSONLGzip, jsonlBatch, false)},
	{"serve_mixed", "open-loop queries beside open-loop writes and epoch cuts on a growing generation: cut, checkpoint and query scans do the work", runServeMixed},
	{"study_offline", "cold offline study rounds: generator, Dataset freeze and figures do the work; live, wal, wire and obs are bypassed", runStudyOffline},
}

// metricDef is one metric. Bound is set for end-to-end metrics only:
// the share of the parent's median by which the metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Doc    string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; what "operation" and "refresh" mean on
// each workload is in the table in README.md and in opDoc/refreshDoc.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median of the set-up passes: generate the dataset, encode request bodies, and on serve_mixed boot and preload the plane"},
	{"op_p50_ms", "ms", "lower", 0.25, "median latency of the workload's operation as its user sees it"},
	{"refresh_p50_ms", "ms", "lower", 0.25, "median time to turn records the system already holds into a queryable dataset"},
	{"heap_bytes_per_record", "B/record", "lower", 0.05, "live heap the system adds per record it keeps queryable"},
}

// opDoc and refreshDoc say what the two workload-defined metrics
// measure on each workload.
var opDoc = map[string]string{
	"ingest_wal":    "POST sent → 202 read, client side, binary frames of 500 records",
	"ingest_jsonl":  "POST sent → 202 read, client side, gzip JSONL bodies of 200 records",
	"serve_mixed":   "query answered beside writes and epoch cuts, timed from its due time",
	"study_offline": "one cold full study: New → Store → Dataset → RunAll → render",
}

var refreshDoc = map[string]string{
	"ingest_wal":    "crash recovery: wal.Open → Replay through Ingest → Snapshot → first query answered",
	"ingest_jsonl":  "the round's epoch cut (Engine.Snapshot, no WAL)",
	"serve_mixed":   "Engine.Snapshot() under load, checkpoint included",
	"study_offline": "Study.Dataset(): freezing the generated store",
}

// perLayer are the metrics of single layers, reported by the traced
// run. Times are mean self time per operation unless the name says
// otherwise; a layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"wire.decode_ms_per_batch", "ms", "lower", 0, "span around wire.DecodeBody, gunzip included"},
	{"wire.decode_share", "share", "lower", 0, "wire.decode time as a share of client POST time"},
	{"wire.body_bytes_per_record", "B/record", "lower", 0, "request body bytes on the wire per record"},

	{"live.admit_ms_per_batch", "ms", "lower", 0, "self time of Engine.IngestSpan (minus wal.append)"},
	{"live.backpressured_batches", "count", "lower", 0, "batches answered 429"},
	{"live.cut_ms", "ms", "lower", 0, "self time of Engine.Snapshot (minus wal.commit)"},
	{"live.cut_ms_per_krec", "ms", "lower", 0, "live.cut self time per thousand records published"},
	{"live.query_share_ms", "ms", "lower", 0, "live.ShareOver"},
	{"live.query_top_ms", "ms", "lower", 0, "live.TopPublishersOver"},
	{"live.query_window_ms", "ms", "lower", 0, "live.WindowOver"},
	{"live.query_marshal_ms", "ms", "lower", 0, "live.MarshalResponse"},
	{"live.query_alloc_bytes_per_op", "B/op", "lower", 0, "bytes allocated per query, measured in-process on the final generation"},

	{"wal.append_ms_per_batch", "ms", "lower", 0, "wal.Log.AppendBatch, fsync included"},
	{"wal.fsyncs_per_batch", "count", "lower", 0, "wal_fsync_total per acked batch"},
	{"wal.commit_ms", "ms", "lower", 0, "wal.Log.Commit: checkpoint write and segment truncation"},
	{"wal.checkpoint_bytes_per_commit", "bytes", "lower", 0, "size of the checkpoint a commit leaves"},
	{"wal.segment_bytes_per_record", "B/record", "lower", 0, "segment bytes in the crash image per acked record"},
	{"wal.checkpoint_bytes_per_record", "B/record", "lower", 0, "checkpoint bytes in the crash image per acked record"},
	{"wal.bytes_per_record", "B/record", "lower", 0, "all bytes in the crash image per acked record"},
	{"wal.open_ms", "ms", "lower", 0, "wal.Open on the crash image"},
	{"wal.replay_ms", "ms", "lower", 0, "wal.Log.Replay through Engine.Ingest"},
	{"wal.replay_records_per_s", "records/s", "higher", 0, "records replayed per second of wal.replay"},
	{"wal.recovery_ms", "ms", "lower", 0, "wal.Open → first query answered"},

	{"telemetry.sort_ms", "ms", "lower", 0, "CanonicalSort on a replica of the last cut's input"},
	{"telemetry.freeze_ms", "ms", "lower", 0, "NewDataset on the same replica (Study.Dataset on study_offline)"},

	{"core.generate_ms", "ms", "lower", 0, "Study.Store(): generating the ecosystem's records"},
	{"core.freeze_ms", "ms", "lower", 0, "Study.Dataset()"},
	{"core.figures_ms", "ms", "lower", 0, "Study.RunAll"},
	{"core.render_ms", "ms", "lower", 0, "Study.RenderAllParallel after RunAll"},

	{"obs.sample_ms", "ms", "lower", 0, "one Sampler.Sample() pass"},
	{"obs.metrics_render_ms", "ms", "lower", 0, "one GET /metrics"},

	{"nethttp.read_body_ms", "ms", "lower", 0, "reading the request body off the connection"},
	{"nethttp.respond_ms", "ms", "lower", 0, "writing status, headers and body"},
	{"nethttp.residual_ms_per_post", "ms", "lower", 0, "client POST time minus the traced handler's span"},

	{"runtime.num_gc", "count", "lower", 0, "GC cycles during the timed work"},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0, "stop-the-world pause total during the timed work"},
	{"runtime.alloc_bytes_per_record", "B/record", "lower", 0, "TotalAlloc delta per record carried"},

	{"client.records_per_s", "records/s", "higher", 0, "records acked per second of closed-loop ingest (median over rounds), of the serve_mixed writer's schedule, or generated and studied per second of a study"},
	{"client.ack_p95_ms", "ms", "lower", 0, "POST → 202 on the ingest workloads"},
	{"client.ack_p99_ms", "ms", "lower", 0, "POST → 202 on the ingest workloads"},
	{"client.ack_max_ms", "ms", "lower", 0, "POST → 202 on the ingest workloads"},
	{"client.query_idle_p50_ms", "ms", "lower", 0, "serve_mixed queries due while no cut ran, from due time"},
	{"client.query_undercut_p50_ms", "ms", "lower", 0, "serve_mixed queries due while a cut ran, from due time"},
	{"client.query_p95_ms", "ms", "lower", 0, "serve_mixed queries, from due time"},
	{"client.query_p99_ms", "ms", "lower", 0, "serve_mixed queries, from due time"},
	{"client.mixed_ack_p50_ms", "ms", "lower", 0, "serve_mixed writer POST → 202, from due time"},
	{"client.mixed_ack_p95_ms", "ms", "lower", 0, "serve_mixed writer POST → 202, from due time"},
	{"client.max_late_ms", "ms", "lower", 0, "how late the open-loop generator sent its latest request"},
	{"client.retries", "count", "lower", 0, "POSTs resent after a 429"},

	{"bench.trace_overhead_share", "share", "lower", 0, "1 − traced/untraced records per second over alternating rounds"},
}
