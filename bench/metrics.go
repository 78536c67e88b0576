package main

// metricDef declares one metric: BENCHMARK.json carries the same list (the
// unit test holds the two together). Better is "lower" or "higher". Bound is
// the share of the reference median by which an end-to-end metric may worsen
// before -compare (and the driver) call it a regression; per-layer metrics
// explain, they do not gate, so theirs is 0.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the sweep service sees, measured with tracing
// off. Every workload reports every one of them: on the single-sweep
// workloads a pass is one sweep, so the latency percentiles are taken over
// the passes and sweeps_per_s is the reciprocal of the wall time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sweep_wall_s", "s", "lower", 0.25},
	{"sweep_cpu_s", "s", "lower", 0.25},
	{"best_objective", "USD.J.s", "lower", 0.20},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"sweep_latency_p50_ms", "ms", "lower", 0.25},
	{"sweep_latency_p90_ms", "ms", "lower", 0.25},
	{"sweeps_per_s", "1/s", "higher", 0.25},
}

// perLayer is the traced run's ladder, prefix = module. A metric that does
// not apply to a workload (fleet.* off the fleet, serve.* on it) reads 0.
var perLayer = []metricDef{
	{"trace_overhead_share", "fraction", "lower", 0},

	{"dnn.build_ms", "ms", "lower", 0},
	{"dse.enumerate_ms", "ms", "lower", 0},
	{"dse.candidates", "count", "lower", 0},
	{"dse.cells", "count", "lower", 0},

	{"graphpart.partition_cold_ms", "ms", "lower", 0},
	{"graphpart.partition_warm_ms", "ms", "lower", 0},
	{"graphpart.group_evals", "count", "lower", 0},

	{"eval.cold_group_us", "us", "lower", 0},
	{"eval.group_hit_ns", "ns", "lower", 0},
	{"eval.scheme_us", "us", "lower", 0},
	{"eval.cache_hit_rate", "fraction", "higher", 0},
	{"eval.cache_flushes", "count", "lower", 0},
	{"eval.cache_entries", "count", "lower", 0},
	{"eval.cache_misses", "count", "lower", 0},
	{"eval.disk_save_ms", "ms", "lower", 0},
	{"eval.disk_load_ms", "ms", "lower", 0},
	{"eval.disk_bytes", "bytes", "lower", 0},
	{"eval.sim_ratio_p50", "ratio", "lower", 0},
	{"eval.sim_ratio_max", "ratio", "lower", 0},

	{"core.analyze_us", "us", "lower", 0},
	{"intracore.explore_us", "us", "lower", 0},
	{"cost.evaluate_us", "us", "lower", 0},

	{"noc.build_ms", "ms", "lower", 0},
	{"noc.route_ns", "ns", "lower", 0},
	{"noc.cores", "count", "lower", 0},

	{"sa.optimize_ms", "ms", "lower", 0},
	{"sa.iter_us", "us", "lower", 0},
	{"sa.iterations", "count", "lower", 0},
	{"sa.accept_share", "fraction", "higher", 0},
	{"sa.applied_share", "fraction", "higher", 0},

	{"dse.cell_ms", "ms", "lower", 0},
	{"dse.cell_overhead_share", "fraction", "lower", 0},
	{"dse.cells_per_s", "1/s", "higher", 0},
	{"dse.alloc_mb_per_cell", "MB", "lower", 0},
	{"dse.mallocs_per_cell", "count", "lower", 0},
	{"dse.pruned_share", "fraction", "higher", 0},
	{"dse.abandoned_restarts", "count", "higher", 0},
	{"dse.parallel_efficiency_2", "fraction", "higher", 0},
	{"dse.checkpoint_save_ms", "ms", "lower", 0},
	{"dse.checkpoint_load_ms", "ms", "lower", 0},
	{"dse.checkpoint_bytes", "bytes", "lower", 0},

	{"serve.submit_to_start_ms", "ms", "lower", 0},
	{"serve.queue_wait_ms", "ms", "lower", 0},
	{"serve.first_result_ms", "ms", "lower", 0},
	{"serve.stream_events", "count", "lower", 0},
	{"serve.stream_bytes", "bytes", "lower", 0},
	{"serve.result_event_share", "fraction", "higher", 0},
	{"serve.resume_ms", "ms", "lower", 0},
	{"serve.sweep_latency_p99_ms", "ms", "lower", 0},
	{"serve.data_dir_files", "count", "lower", 0},
	{"serve.datadir_cost_share", "fraction", "lower", 0},

	{"fleet.overhead_share", "fraction", "lower", 0},
	{"fleet.uploads", "count", "lower", 0},
	{"fleet.expired_leases", "count", "lower", 0},
	{"fleet.recomputed_settled_cells", "count", "lower", 0},
	{"fleet.sa_iterations", "count", "lower", 0},
	{"fleet.worker_imbalance", "ratio", "lower", 0},
	{"fleet.lease_rtt_ms", "ms", "lower", 0},
}

var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()
