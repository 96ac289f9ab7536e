package main

import (
	"runtime"

	"focus/internal/crawler"
	"focus/internal/webgraph"
)

// Every workload crawls for the same topic from the same number of seed
// URLs under soft focus, with the web's timeout and dead-link rates at
// their defaults and zero simulated latency (see README: sleep-based costs
// do not repeat on a small box).
const (
	goodTopic   = "cycling"
	topicWeight = 3
	seedURLs    = 25
)

// storeKind says where a workload's crawl relations live.
type storeKind int

const (
	storeMem     storeKind = iota // in-memory disk behind a pool that holds everything
	storeFile                     // real file behind a small steal pool: misses, evictions, preads
	storeDurable                  // durable file: no-steal pool, journal, manifests, fsync
)

// workload is one set of inputs the benchmark runs. One unit of a workload
// is one crawl, set-up included, in a fresh process; a run repeats units on
// webs derived from its seed until its time is spent.
type workload struct {
	Name string
	Why  string
	// Web is the web configuration; the unit fills in Seed.
	Web webgraph.Config
	// Crawl is the crawl configuration; the unit fills in Workers.
	Crawl  crawler.Config
	Frames int
	Store  storeKind
	// CrashAt (storeDurable) is the fetch budget of the first phase, whose
	// System is abandoned without Close; the crawl then resumes from the
	// file and runs to Crawl.MaxFetches.
	CrashAt int64
	// Monitor adds one closed-loop query client beside the crawl and gives
	// the crawl one worker fewer.
	Monitor bool
	// ExpectS is the time one untraced unit is expected to stay within:
	// twice what it takes on the 2-core sizing box, so that a slower box or
	// a paused VM is not mistaken for a hang. The watchdog kills a unit at
	// five times that.
	ExpectS float64
	// HubCheck verifies the top hubs against the generator's ground truth
	// (see verify); the thresholds are sized for this workload's budget.
	HubCheck bool
	// Tiny marks the smoke test's shrunken copy (see tiny); the B+tree
	// timing shrinks with it.
	Tiny bool
}

func standardWeb() webgraph.Config {
	return webgraph.Config{
		NumPages:     20000,
		TopicWeights: map[string]float64{goodTopic: topicWeight},
	}
}

// linkHeavyWeb is eval.LinkHeavyWeb: hub-dense, ~41 edges per visit.
func linkHeavyWeb() webgraph.Config {
	c := standardWeb()
	c.HubFrac, c.HubOutDegree, c.OutDegreeMean = 0.25, 60, 30
	return c
}

// docHeavyWeb is eval.DocHeavyWeb: long documents over a large vocabulary,
// ~3.5 edges per visit.
func docHeavyWeb() webgraph.Config {
	c := standardWeb()
	c.DocLenMean, c.BackgroundVocab, c.TopicVocab = 2400, 20000, 240
	c.OutDegreeMean, c.HubFrac, c.NavLinksMean = 3, 0.02, 0.25
	return c
}

// workloads is the benchmark. Budgets are sized so one unit takes three to
// four seconds on two cores and a run of BENCHMARK.json's run_seconds holds
// four or five of them.
var workloads = []workload{
	{
		Name: "standard",
		Why:  "focuscrawl out of the box (20k pages, 2000 fetches, distill every 500): distiller-bound, so distiller, snapshot and score-table work show here and per-visit work does not",
		Web:  standardWeb(), Frames: 4096, ExpectS: 8, HubCheck: true,
		Crawl: crawler.Config{MaxFetches: 2000, DistillEvery: 500},
	},
	{
		Name: "linkheavy",
		Why:  "hub-dense web, no DOCUMENT rows, no distillation: linkgraph.Apply, the incoming-weight sweep and frontier B+tree inserts do most of the work (~41 edges per visit)",
		Web:  linkHeavyWeb(), Frames: 4096, ExpectS: 8,
		Crawl: crawler.Config{MaxFetches: 800, SkipDocuments: true},
	},
	{
		Name: "docheavy",
		Why:  "long documents, few links, no distillation: textproc, Classify and InsertDoc do most of the work; the bypass workload for link-path changes",
		Web:  docHeavyWeb(), Frames: 4096, ExpectS: 8,
		Crawl: crawler.Config{MaxFetches: 2500},
	},
	{
		Name: "diskres",
		Why:  "linkheavy's calls with the relations in a real file behind a 128-frame steal pool: the working set dwarfs the pool, so the miss, eviction and disk paths show here and are idle in linkheavy",
		Web:  linkHeavyWeb(), Frames: 128, Store: storeFile, ExpectS: 8,
		Crawl: crawler.Config{MaxFetches: 800, SkipDocuments: true},
	},
	{
		Name: "durable",
		Why:  "standard's web in a durable file with checkpoints, crashed at 1000 fetches without Close, resumed and run to 1700: no-steal pool, journal, manifests, fsync and recovery",
		Web:  standardWeb(), Frames: 16384, Store: storeDurable, CrashAt: 1000, ExpectS: 8,
		Crawl: crawler.Config{MaxFetches: 1700, DistillEvery: 600, CheckpointEvery: 200},
	},
	{
		Name: "monitor",
		Why:  "standard's crawl beside one client cycling the four monitoring queries with 20 ms think time: three take the full barrier, so lock-tower changes show as query latency or as crawl throughput",
		Web:  standardWeb(), Frames: 4096, Monitor: true, ExpectS: 8,
		Crawl: crawler.Config{MaxFetches: 2000, DistillEvery: 500},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workers is the closed loop's client count: min(nproc, 4) fetch workers
// and nothing else generating load, or, beside the monitor client, one
// fewer.
func (w workload) workers() int {
	n := min(runtime.NumCPU(), 4)
	if w.Monitor {
		n = max(1, n-1)
	}
	return n
}

// tiny shrinks a workload to a smoke-test budget: every stage still runs
// (distillation, checkpoints, crash and resume), in well under a second.
func (w workload) tiny() workload {
	w.Tiny, w.HubCheck = true, false
	w.Web.NumPages = 4000
	w.Crawl.MaxFetches = 150
	if w.Crawl.DistillEvery > 0 {
		w.Crawl.DistillEvery = 50
	}
	if w.Crawl.CheckpointEvery > 0 {
		w.Crawl.CheckpointEvery = 25
	}
	if w.CrashAt > 0 {
		w.CrashAt = 90
	}
	return w
}
