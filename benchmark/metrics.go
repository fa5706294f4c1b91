package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, share of the parent's median
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, which is why the write latencies are not among them (a
// read-only workload has none) and why ok_ratio stands in for a failure ratio
// (a bounded metric may never be 0); see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"check_p50_us", "us", "lower", 0.25},
	{"check_p99_us", "us", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.001},
	{"heap_mb", "MB", "lower", 0.05},
}

// perLayer are the traced run's metrics, one layer each. A metric a workload
// cannot produce (a handler span on an embedded workload, a write count on a
// read-only one) is reported as 0.
var perLayer = []metricDef{
	{name: "client.call_us", unit: "us", better: "lower"},
	{name: "client.self_us", unit: "us", better: "lower"},
	{name: "loopback.self_us", unit: "us", better: "lower"},
	{name: "server.handler_check_us", unit: "us", better: "lower"},
	{name: "server.handler_batch_us", unit: "us", better: "lower"},
	{name: "server.self_check_us", unit: "us", better: "lower"},
	{name: "server.handler_write_us", unit: "us", better: "lower"},
	{name: "server.self_write_us", unit: "us", better: "lower"},
	{name: "server.commit_group_size", unit: "count", better: "higher"},
	{name: "server.shed_ratio", unit: "ratio", better: "lower"},
	{name: "httpapi.codec_us", unit: "us", better: "lower"},
	{name: "reachac.check_us", unit: "us", better: "lower"},
	{name: "reachac.check_p99_us", unit: "us", better: "lower"},
	{name: "reachac.self_check_us", unit: "us", better: "lower"},
	{name: "reachac.publish_us", unit: "us", better: "lower"},
	{name: "reachac.publish_p99_us", unit: "us", better: "lower"},
	{name: "reachac.republications_per_kmut", unit: "count", better: "lower"},
	{name: "reachac.mutate_us", unit: "us", better: "lower"},
	{name: "planner.dcache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "planner.dcache_evict_per_kmut", unit: "count", better: "lower"},
	{name: "planner.route_audience_share", unit: "ratio", better: "higher"},
	{name: "planner.route_flat_share", unit: "ratio", better: "lower"},
	{name: "planner.route_primary_share", unit: "ratio", better: "lower"},
	{name: "search.reachable_us", unit: "us", better: "lower"},
	{name: "search.reachable_p99_us", unit: "us", better: "lower"},
	{name: "search.audience_us", unit: "us", better: "lower"},
	{name: "graph.clone_ms", unit: "ms", better: "lower"},
	{name: "graph.apply_us_per_delta", unit: "us", better: "lower"},
	{name: "graph.csr_build_ms", unit: "ms", better: "lower"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.append_p99_us", unit: "us", better: "lower"},
	{name: "wal.fsyncs_per_kmut", unit: "count", better: "lower"},
	{name: "wal.bytes_per_mut", unit: "bytes", better: "lower"},
	{name: "wal.replay_us_per_op", unit: "us", better: "lower"},
	{name: "pathexpr.parse_us", unit: "us", better: "lower"},
	{name: "generate.stream_s", unit: "s", better: "lower"},
	{name: "reachac.load_s", unit: "s", better: "lower"},
	{name: "reachac.engine_build_s", unit: "s", better: "lower"},
	{name: "write_p50_us", unit: "us", better: "lower"},
	{name: "write_p99_us", unit: "us", better: "lower"},
	{name: "paced.check_p50_us", unit: "us", better: "lower"},
	{name: "paced.check_p99_us", unit: "us", better: "lower"},
	{name: "paced.write_p50_us", unit: "us", better: "lower"},
	{name: "paced.write_p99_us", unit: "us", better: "lower"},
	{name: "harness.noop_p50_us", unit: "us", better: "lower"},
	{name: "harness.noop_p99_us", unit: "us", better: "lower"},
	{name: "harness.gen_late_p99_us", unit: "us", better: "lower"},
	{name: "harness.limit_miss_ratio", unit: "ratio", better: "lower"},
	{name: "harness.trace_overhead_ratio", unit: "ratio", better: "higher"},
	{name: "fail_ratio", unit: "ratio", better: "lower"},
}
