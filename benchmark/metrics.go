package main

// metricDef names one metric of BENCHMARK.json. The table here is the
// program's copy of that file's end_to_end and per_layer lists; the
// smoke test fails when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the placer sees. Bound is the
// share of the parent's median by which a metric may get worse before
// a change counts as a regression: three times the seed-to-seed spread
// measured when the benchmark was defined (see README.md), rounded up,
// and 0.25, the most the driver allows, for the times, whose spread on
// the shared machine this was built on is 7 to 13%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"place_s", "s", "lower", 0.25},
	{"place_par_s", "s", "lower", 0.25},
	{"hpwl", "length", "lower", 0.05},
	{"scaled_hpwl", "length", "lower", 0.05},
	{"alloc_mb", "MB", "lower", 0.05},
}

// perLayer are measured by the traced repetitions and the probes that
// follow them. Stage shares are fractions of core.place_traced_s, not
// seconds, because most stages run on only some workloads and a time
// that reads 0 on every run is indistinguishable from one that was
// never measured.
var perLayer = []metricDef{
	{"core.place_traced_s", "s", "lower", 0},
	{"core.mip_frac", "frac", "lower", 0},
	{"core.mgp_frac", "frac", "lower", 0},
	{"core.mgp_coarse_frac", "frac", "lower", 0},
	{"core.mlg_frac", "frac", "lower", 0},
	{"core.cgp_frac", "frac", "lower", 0},
	{"core.egp_frac", "frac", "lower", 0},
	{"core.cdp_frac", "frac", "lower", 0},
	{"core.other_frac", "frac", "lower", 0},
	{"core.mgp_unattributed_frac", "frac", "lower", 0},
	{"core.trace_overhead_frac", "frac", "lower", 0},
	{"nesterov.iters", "count", "lower", 0},
	{"nesterov.backtracks", "count", "lower", 0},
	{"nesterov.iter_ms", "ms", "lower", 0},
	{"density.span_s", "s", "lower", 0},
	{"density.grad_ms", "ms", "lower", 0},
	{"density.grad_par_ms", "ms", "lower", 0},
	{"grid.raster_ms", "ms", "lower", 0},
	{"grid.m", "count", "lower", 0},
	{"poisson.span_s", "s", "lower", 0},
	{"poisson.solve_ms", "ms", "lower", 0},
	{"poisson.solve_par_ms", "ms", "lower", 0},
	{"fft.dct2_us", "us", "lower", 0},
	{"wirelength.span_s", "s", "lower", 0},
	{"wirelength.grad_ms", "ms", "lower", 0},
	{"wirelength.grad_par_ms", "ms", "lower", 0},
	{"netlist.compile_ms", "ms", "lower", 0},
	{"netlist.hpwl_ms", "ms", "lower", 0},
	{"netlist.pins", "count", "lower", 0},
	{"cluster.build_ms", "ms", "lower", 0},
	{"cluster.levels", "count", "higher", 0},
	{"cluster.coarsest_cells", "count", "lower", 0},
	{"legalize.cells_s", "s", "lower", 0},
	{"legalize.mlg_accept_frac", "frac", "higher", 0},
	{"detail.span_s", "s", "lower", 0},
	{"detail.reorder_s", "s", "lower", 0},
	{"detail.swap_s", "s", "lower", 0},
	{"detail.ism_s", "s", "lower", 0},
	{"detail.relocate_s", "s", "lower", 0},
	{"detail.passes", "count", "lower", 0},
	{"detail.hpwl_gain_frac", "frac", "higher", 0},
	{"detail.pass_ms", "ms", "lower", 0},
	{"eco.prepare_frac", "frac", "lower", 0},
	{"eco.active_frac", "frac", "lower", 0},
	{"eco.legalize_max_disp", "length", "lower", 0},
	{"checkpoint.encode_ms", "ms", "lower", 0},
	{"checkpoint.decode_ms", "ms", "lower", 0},
	{"checkpoint.bytes", "count", "lower", 0},
	{"synth.generate_s", "s", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.cpu_s", "s", "lower", 0},
	{"process.cpu_par_s", "s", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.mallocs", "count", "lower", 0},
	{"process.heap_live_mb", "MB", "lower", 0},
}
