package main

// metricDef names a reported metric and its unit. BENCHMARK.json lists
// the same names and units; the benchmark's tests keep the two equal.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the compiler, the service or the
// engine sees. Every workload reports every one of them (README.md
// gives each one's meaning per workload). Times are CPU times (see
// cpuNow).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"cpu_p50_ms", "ms"},
	{"cpu_p99_ms", "ms"},
	{"compile_cpu_geomean_ms", "ms"},
	{"budget_fail_cpu_ms", "ms"},
	{"pe_steps_per_cpu_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayerMetrics come from the traced run. A layer a workload does not
// call reports 0.
var perLayerMetrics = []metricDef{
	{"mimdc.parse_ms", "ms"},
	{"mimdc.analyze_ms", "ms"},
	{"mimdc.tokens", "count"},
	{"cfg.lower_ms", "ms"},
	{"cfg.simplify_ms", "ms"},
	{"cfg.blocks", "count"},
	{"analysis.vet_ms", "ms"},
	{"msc.convert_ms", "ms"},
	{"msc.convert_alloc_mb", "MB"},
	{"msc.meta_states", "count"},
	{"msc.meta_explored", "count"},
	{"msc.check_ms", "ms"},
	{"csi.induce_ms", "ms"},
	{"csi.alloc_mb", "MB"},
	{"csi.saved_cycles", "count"},
	{"hashgen.search_ms", "ms"},
	{"hashgen.alloc_mb", "MB"},
	{"hashgen.candidates_tried", "count"},
	{"hashgen.tables_built", "count"},
	{"codegen.emit_ms", "ms"},
	{"codegen.alloc_mb", "MB"},
	{"artifact.encode_ms", "ms"},
	{"artifact.decode_ms", "ms"},
	{"artifact.bytes", "count"},
	{"cache.put_ms", "ms"},
	{"cache.get_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"service.overhead_ms", "ms"},
	{"simd.run_ms", "ms"},
	{"simd.ns_per_pe_step", "ns"},
	{"simd.pe_steps", "count"},
	{"simd.utilization", "ratio"},
	{"residual_ratio", "ratio"},
	{"trace_overhead_ratio", "ratio"},
}

// compileLayers are the traced compile pipeline's timed layers, in
// pipeline order.
var compileLayers = []string{
	"mimdc.parse", "mimdc.analyze", "cfg.lower", "cfg.simplify",
	"msc.convert", "msc.check", "analysis.vet",
	"csi.induce", "hashgen.search", "codegen.emit",
}
