package main

import (
	"math"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json is generated from these
// lists (-spec) and the smoke test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" | "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
	// Scale says how an end-to-end metric follows the machine's speed, so
	// that a run can report it for the nominal machine: +1 a duration
	// (multiplied by the measured speed), -1 a rate (divided by it), 0 a
	// count or a size.
	Scale int `json:"-"`
}

// endToEnd are the metrics a user of the crawler sees; README.md defines
// each. Every one is measured on every workload, untraced.
//
// The bounds are what two ten-seed sets on the 2-core sizing box support
// (REPEATABILITY.md). That box's speed shifts by 10-35% for minutes at a
// time: the timings are scaled by a reference kernel timed between units
// (calib.go), which halves the shifts, and still carry the widest bound the
// contract allows. docheavy's sparse web makes the two quality metrics vary
// by 12% from seed to seed. Only the counts repeat tightly.
var endToEnd = []metricDef{
	{Name: "pages_per_s", Unit: "pages/s", Better: "higher", Bound: 0.25, Scale: -1},
	{Name: "harvest_rate", Unit: "relevance/fetch", Better: "higher", Bound: 0.25},
	{Name: "true_relevant_frac", Unit: "fraction", Better: "higher", Bound: 0.25},
	{Name: "distill_epoch_s", Unit: "s", Better: "lower", Bound: 0.25, Scale: 1},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "db_kib_per_visit", Unit: "KiB", Better: "lower", Bound: 0.06},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Scale: 1},
}

// perLayer are the metrics of single layers, named layer.metric after the
// module they measure. They come from the traced unit of a run: its crawl
// (counter snapshots around Run and the span-recording fetcher), its stage
// replay, and its set-up spans. A stage a workload switches off reports 0.
// Their timings are as measured; bench.machine_speed is the factor that
// would scale them.
var perLayer = []metricDef{
	{Name: "webgraph.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "webgraph.fetch_us_p50", Unit: "us", Better: "lower"},
	{Name: "webgraph.fetch_us_p99", Unit: "us", Better: "lower"},
	{Name: "webgraph.fail_ratio", Unit: "fraction", Better: "lower"},

	{Name: "textproc.vectorize_us_per_visit", Unit: "us", Better: "lower"},
	{Name: "textproc.terms_per_visit", Unit: "count", Better: "lower"},

	{Name: "classifier.train_ms", Unit: "ms", Better: "lower"},
	{Name: "classifier.classify_us_per_visit", Unit: "us", Better: "lower"},
	{Name: "classifier.insertdoc_us_per_visit", Unit: "us", Better: "lower"},
	{Name: "classifier.doc_rows_per_visit", Unit: "count", Better: "lower"},
	{Name: "classifier.stream16_us_per_doc", Unit: "us", Better: "lower"},

	{Name: "linkgraph.apply_us_per_visit", Unit: "us", Better: "lower"},
	{Name: "linkgraph.sweep_us_per_visit", Unit: "us", Better: "lower"},
	{Name: "linkgraph.edges_per_visit", Unit: "count", Better: "lower"},
	{Name: "linkgraph.dup_edge_ratio", Unit: "fraction", Better: "lower"},
	{Name: "linkgraph.snapshot_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "linkgraph.probes_per_sweep", Unit: "count", Better: "lower"},

	{Name: "distiller.epoch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "distiller.epoch_ms_max", Unit: "ms", Better: "lower"},
	{Name: "distiller.sort_share", Unit: "fraction", Better: "lower"},
	{Name: "distiller.scan_share", Unit: "fraction", Better: "lower"},
	{Name: "distiller.update_share", Unit: "fraction", Better: "lower"},
	{Name: "distiller.edges_last_epoch", Unit: "count", Better: "lower"},
	{Name: "distiller.stall_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "distiller.compute_share", Unit: "fraction", Better: "lower"},

	{Name: "relstore.pool_fetches_per_visit", Unit: "count", Better: "lower"},
	{Name: "relstore.pool_hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "relstore.evictions_per_visit", Unit: "count", Better: "lower"},
	{Name: "relstore.disk_reads_per_visit", Unit: "count", Better: "lower"},
	{Name: "relstore.disk_writes_per_visit", Unit: "count", Better: "lower"},
	{Name: "relstore.db_pages", Unit: "count", Better: "lower"},
	{Name: "relstore.frontier_us_per_visit", Unit: "us", Better: "lower"},
	{Name: "relstore.fetches_per_visit.apply", Unit: "count", Better: "lower"},
	{Name: "relstore.fetches_per_visit.sweep", Unit: "count", Better: "lower"},
	{Name: "relstore.fetches_per_visit.frontier", Unit: "count", Better: "lower"},
	{Name: "relstore.fetches_per_visit.insertdoc", Unit: "count", Better: "lower"},
	{Name: "relstore.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "relstore.checkpoint_writes_p50", Unit: "count", Better: "lower"},
	{Name: "relstore.btree_get_ns_hot", Unit: "ns", Better: "lower"},
	{Name: "relstore.btree_get_ns_cold", Unit: "ns", Better: "lower"},
	{Name: "relstore.btree_insert_ns", Unit: "ns", Better: "lower"},

	{Name: "crawler.cpu_ms_per_visit", Unit: "ms", Better: "lower"},
	{Name: "crawler.retries_per_fetch", Unit: "fraction", Better: "lower"},
	{Name: "crawler.checkpoints", Unit: "count", Better: "lower"},
	{Name: "crawler.residual_share", Unit: "fraction", Better: "lower"},
	{Name: "crawler.q_harvest_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "crawler.q_census_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "crawler.q_tophubs_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "crawler.q_missed_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "crawler.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "crawler.query_p95_ms", Unit: "ms", Better: "lower"},

	{Name: "core.resume_ms", Unit: "ms", Better: "lower"},
	{Name: "core.lost_visits_on_crash", Unit: "count", Better: "lower"},

	{Name: "runtime.alloc_kib_per_visit", Unit: "KiB", Better: "lower"},
	{Name: "runtime.mallocs_per_visit", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_kib_per_visit.vectorize", Unit: "KiB", Better: "lower"},
	{Name: "runtime.alloc_kib_per_visit.classify", Unit: "KiB", Better: "lower"},
	{Name: "runtime.alloc_kib_per_visit.insertdoc", Unit: "KiB", Better: "lower"},
	{Name: "runtime.alloc_kib_per_visit.apply", Unit: "KiB", Better: "lower"},
	{Name: "runtime.alloc_kib_per_visit.sweep", Unit: "KiB", Better: "lower"},
	{Name: "runtime.alloc_kib_per_visit.frontier", Unit: "KiB", Better: "lower"},

	{Name: "bench.machine_speed", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.replay_us_per_visit", Unit: "us", Better: "lower"},
}

// quantile is the q-quantile of vs by linear interpolation between order
// statistics; 0 for no samples.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// ratio is a/b, and 0 when there is no base to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
