package main

// metricDef names one reported metric: its unit and which direction is an
// improvement. The two lists below are the benchmark's whole vocabulary —
// every run prints exactly one of them (endToEnd untraced, perLayer
// traced), and BENCHMARK.json must declare them in the same order
// (TestSpecCoversEveryMetric checks it).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees. Each is defined on
// every workload (see spec.json "end_to_end_meaning" for what each one is
// on the training and on the serving workloads).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
}

// probeBases are the layer probes; each reports a time metric plus
// <base>_allocs and <base>_bytes per operation.
var probeBases = []struct {
	base, timeName, timeUnit, better string
}{
	{"tensor.matmul", "tensor.matmul_gflops", "GFLOP/s", "higher"},
	{"tensor.matmul_bt", "tensor.matmul_bt_gflops", "GFLOP/s", "higher"},
	{"tensor.matmul_at", "tensor.matmul_at_gflops", "GFLOP/s", "higher"},
	{"nn.linear_fwd", "nn.linear_fwd_us", "us", "lower"},
	{"nn.linear_bwd", "nn.linear_bwd_us", "us", "lower"},
	{"nn.embbag_fwd", "nn.embbag_fwd_us", "us", "lower"},
	{"nn.embbag_bwd", "nn.embbag_bwd_us", "us", "lower"},
	{"nn.dot_interaction_fwd", "nn.dot_interaction_fwd_us", "us", "lower"},
	{"nn.dot_interaction_bwd", "nn.dot_interaction_bwd_us", "us", "lower"},
	{"nn.adam_step", "nn.adam_step_us", "us", "lower"},
	{"nn.sparse_adam_step", "nn.sparse_adam_step_us", "us", "lower"},
	{"quant.encode_residual", "quant.encode_residual_ns_per_kb", "ns/KB", "lower"},
	{"quant.decode_into", "quant.decode_into_ns_per_kb", "ns/KB", "lower"},
	{"comm.allgather_batch", "comm.allgather_batch_us", "us", "lower"},
	{"sptt.forward", "sptt.forward_us", "us", "lower"},
	{"embeddings.store_lookup", "embeddings.store_lookup_us", "us", "lower"},
	{"embeddings.store_update", "embeddings.store_update_us", "us", "lower"},
	{"embeddings.keyed_get", "embeddings.keyed_get_ns", "ns", "lower"},
	{"embeddings.keyed_put", "embeddings.keyed_put_ns", "ns", "lower"},
	{"models.predict_b1", "models.predict_us_per_item_b1", "us", "lower"},
	{"models.predict_avg_batch", "models.predict_us_per_item_avg_batch", "us", "lower"},
}

// layerMetrics are the per-layer metrics that are not probe outputs: step
// statistics, wire counters, cache ratios, simulator replays, and the
// benchmark's own health.
var layerMetrics = []metricDef{
	{"distributed.emb_ms_per_step", "ms", "lower"},
	{"distributed.dense_ms_per_step", "ms", "lower"},
	{"distributed.grad_exchange_ms_per_step", "ms", "lower"},
	{"distributed.update_ms_per_step", "ms", "lower"},
	{"distributed.exposed_comm_ms_per_step", "ms", "lower"},
	{"distributed.hidden_comm_ms_per_step", "ms", "higher"},
	{"distributed.cross_step_hidden_us_per_step", "us", "higher"},
	{"distributed.allocs_per_step", "count", "lower"},
	{"distributed.alloc_mb_per_step", "MB", "lower"},
	{"train_modeled_step_us", "us", "lower"},
	{"comm.grad_cross_bytes_per_step", "bytes", "lower"},
	{"comm.grad_intra_bytes_per_step", "bytes", "lower"},
	{"comm.emb_cross_bytes_per_step", "bytes", "lower"},
	{"comm.emb_intra_bytes_per_step", "bytes", "lower"},
	{"sptt.fwd_exposed_us_per_step", "us", "lower"},
	{"sptt.fwd_hidden_us_per_step", "us", "higher"},
	{"sptt.bwd_exposed_us_per_step", "us", "lower"},
	{"sptt.bwd_hidden_us_per_step", "us", "higher"},
	{"embeddings.lookup_cross_kb_per_step", "KB", "lower"},
	{"embeddings.update_cross_kb_per_step", "KB", "lower"},
	{"embeddings.lookup_exposed_us_per_step", "us", "lower"},
	{"embeddings.update_exposed_us_per_step", "us", "lower"},
	{"embeddings.tier_cache_hit_ratio", "ratio", "higher"},
	{"embeddings.tier_cache_accesses_per_step", "count", "higher"},
	{"quant.allocs_per_op", "count", "lower"},
	{"serve.avg_batch", "count", "higher"},
	{"serve.tower_hit_ratio", "ratio", "higher"},
	{"serve.emb_hit_ratio", "ratio", "higher"},
	{"serve.allocs_per_request", "count", "lower"},
	{"serve.p99_ms", "ms", "lower"},
	{"cluster.modeled_p50_ms", "ms", "lower"},
	{"cluster.modeled_p99_ms", "ms", "lower"},
	{"cluster.run_ms", "ms", "lower"},
	{"bench.gen_lag_ms_max", "ms", "lower"},
	{"bench.tracing_overhead_pct", "%", "lower"},
}

// perLayer returns the full traced-run vocabulary in print order.
func perLayer() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, p := range probeBases {
		out = append(out,
			metricDef{p.timeName, p.timeUnit, p.better},
			metricDef{p.base + "_allocs", "count", "lower"},
			metricDef{p.base + "_bytes", "bytes", "lower"})
	}
	return out
}
