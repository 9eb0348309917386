package main

// metricDef names one metric. BENCHMARK.json at the repository root
// carries the same names, units, directions and bounds; the package's
// test fails when the two disagree.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the relative worsening that is a regression
}

// endToEnd are what a user of the system sees. Every time in them is in
// calibrated seconds (see spin.go); the raw readings are per-layer
// metrics of the benchmark layer. None of them is ever zero.
var endToEnd = []metricDef{
	// steps × batch ÷ median calibrated pass time: the paper's headline.
	{"samples_per_s", "samples/cal_s", "higher", 0.25},
	// Process CPU cost of training. On a shared few-core host the
	// steadiest measure of work removed; overlap that only hides latency
	// shows in samples_per_s and not here.
	{"cpu_s_per_ksample", "cpu_s/ksample", "lower", 0.25},
	// runtime.MemStats.TotalAlloc across the pass.
	{"alloc_mb_per_ksample", "MB/ksample", "lower", 0.05},
	// Per pass, before the timed call: workbench, batches, and for the
	// cluster workloads listeners and workers.
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are measured in a --trace 1 run, one name per module. Times
// are calibrated milliseconds or microseconds; "per step" totals are
// summed over all devices and divided by the steps trained. A metric
// whose layer a workload never runs reads 0 there.
var perLayer = []metricDef{
	// tensor: the Backend wrapper around every kernel call.
	{name: "tensor.gemm_ms_per_step", unit: "ms", better: "lower"},
	{name: "tensor.batch_gemm_ms_per_step", unit: "ms", better: "lower"},
	{name: "tensor.conv_gemm_ms_per_step", unit: "ms", better: "lower"},
	{name: "tensor.im2col_ms_per_step", unit: "ms", better: "lower"},
	{name: "tensor.eltwise_ms_per_step", unit: "ms", better: "lower"},
	{name: "tensor.kernel_calls_per_step", unit: "count", better: "lower"},
	{name: "tensor.gflop_per_step", unit: "GFLOP", better: "lower"},
	{name: "tensor.gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.skinny_call_share", unit: "ratio", better: "lower"},

	// nn: the Layer wrapper (in-process) or the shipped phase spans (cluster).
	{name: "nn.teacher_fwd_ms_per_step", unit: "ms", better: "lower"},
	{name: "nn.student_fwd_ms_per_step", unit: "ms", better: "lower"},
	{name: "nn.student_bwd_ms_per_step", unit: "ms", better: "lower"},
	{name: "nn.self_ms_per_step", unit: "ms", better: "lower"},
	{name: "nn.sgd_step_us", unit: "us", better: "lower"},

	// distill: direct timings of distill.Step on the workload's shapes.
	{name: "distill.block_step_ms_max", unit: "ms", better: "lower"},
	{name: "distill.block_step_ms_sum", unit: "ms", better: "lower"},
	{name: "distill.teacher_fwd_per_step", unit: "count", better: "lower"},
	{name: "distill.workbench_build_ms", unit: "ms", better: "lower"},

	{name: "dataset.gen_us_per_sample", unit: "us", better: "lower"},

	// engine: derived bounds, the sequential and DP baselines, and the
	// in-process device loop's own spans.
	{name: "engine.ideal_ms_per_step", unit: "ms", better: "lower"},
	{name: "engine.efficiency", unit: "ratio", better: "higher"},
	{name: "engine.seq_samples_per_s", unit: "samples/cal_s", better: "higher"},
	{name: "engine.speedup_vs_seq", unit: "ratio", better: "higher"},
	{name: "engine.speedup_vs_dp_ref", unit: "ratio", better: "higher"},
	{name: "engine.loop_overhead_us_per_step", unit: "us", better: "lower"},
	{name: "engine.allreduce_ms_per_step", unit: "ms", better: "lower"},
	{name: "engine.relay_wait_ms_per_step", unit: "ms", better: "lower"},
	{name: "engine.barrier_wait_ms_per_step", unit: "ms", better: "lower"},

	// cluster: direct session timings and the spans workers ship.
	{name: "cluster.session_ms", unit: "ms", better: "lower"},
	{name: "cluster.step_ms", unit: "ms", better: "lower"},
	{name: "cluster.vs_inproc_ratio", unit: "ratio", better: "lower"},
	{name: "cluster.allreduce_ms_per_step", unit: "ms", better: "lower"},
	{name: "cluster.ack_wait_ms_per_step", unit: "ms", better: "lower"},
	{name: "cluster.recv_wait_ms_per_step", unit: "ms", better: "lower"},
	{name: "cluster.barrier_wait_ms_per_step", unit: "ms", better: "lower"},
	{name: "cluster.snapshot_ms_per_step", unit: "ms", better: "lower"},
	{name: "cluster.ledger_append_ms_per_step", unit: "ms", better: "lower"},

	{name: "wire.encode_tensor_us", unit: "us", better: "lower"},
	{name: "wire.decode_tensor_us", unit: "us", better: "lower"},
	{name: "wire.encode_allocs", unit: "count", better: "lower"},
	{name: "wire.snapshot_encode_us", unit: "us", better: "lower"},

	// transport: byte and frame counts from transport.Meter on both dial
	// networks (marginal: a full pass minus a half-length one), the
	// Network wrapper's Send/Recv times, and a direct TCP ping-pong.
	{name: "transport.net_bytes_per_sample", unit: "bytes", better: "lower"},
	{name: "transport.coord_bytes_per_step", unit: "bytes", better: "lower"},
	{name: "transport.peer_bytes_per_step", unit: "bytes", better: "lower"},
	{name: "transport.coord_frames_per_step", unit: "count", better: "lower"},
	{name: "transport.peer_frames_per_step", unit: "count", better: "lower"},
	{name: "transport.send_ms_per_step", unit: "ms", better: "lower"},
	{name: "transport.recv_blocked_ms_per_step", unit: "ms", better: "lower"},
	{name: "transport.tcp_rtt_us", unit: "us", better: "lower"},
	{name: "transport.tcp_mb_per_s", unit: "MB/s", better: "higher"},

	{name: "ledger.append_us", unit: "us", better: "lower"},
	{name: "ledger.bytes_per_step", unit: "bytes", better: "lower"},
	{name: "ledger.open_replay_ms", unit: "ms", better: "lower"},
	{name: "ledger.compact_ms", unit: "ms", better: "lower"},

	// obs: (traced − untraced) ÷ untraced calibrated pass time. It bounds
	// how far the traced numbers above can be trusted.
	{name: "obs.trace_overhead_share", unit: "ratio", better: "lower"},

	// benchmark: host and harness health, in raw (uncalibrated) time.
	{name: "benchmark.spin_ms_p50", unit: "ms", better: "lower"},
	{name: "benchmark.spin_iqr_share", unit: "ratio", better: "lower"},
	{name: "benchmark.pass_ms_p50", unit: "ms", better: "lower"},
	{name: "benchmark.pass_ms_p80", unit: "ms", better: "lower"},
	{name: "benchmark.samples_per_s_raw", unit: "samples/s", better: "higher"},
	{name: "benchmark.cpu_s_per_ksample_raw", unit: "cpu_s/ksample", better: "lower"},
	{name: "benchmark.split_half_gap", unit: "ratio", better: "lower"},
	{name: "benchmark.traced_passes", unit: "count", better: "higher"},
}
