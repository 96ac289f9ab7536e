package eval

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"focus/internal/crawler"
	"focus/internal/webgraph"
)

// DocHeavyWeb returns a webgraph whose pages are content-dense and
// link-light: documents several times the default token count, modest
// out-degree, few hubs. Per-page classification and DOCUMENT ingest — not
// link ingest or fetch latency — dominate such a crawl, which is the
// workload the batched classification pipeline targets (the Figure 8(a)
// regime transplanted into the crawl loop).
func DocHeavyWeb(seed int64, pages int) webgraph.Config {
	return webgraph.Config{
		Seed:            seed,
		NumPages:        pages,
		TopicWeights:    map[string]float64{"cycling": 3},
		DocLenMean:      2400,
		BackgroundVocab: 20000,
		TopicVocab:      240,
		OutDegreeMean:   3,
		HubFrac:         0.02,
		NavLinksMean:    0.25,
	}
}

// ThroughputPoint is one setting of the throughput sweep and, once run, its
// measurement. The caller fills Label and the three settings.
type ThroughputPoint struct {
	Label string `json:"label"`
	// Cores is the GOMAXPROCS the point runs under (0 = leave it alone).
	Cores int `json:"cores"`
	// ClassifyBatch and ClassifyParallelism go to crawler.Config as they
	// are: batch <= 1 classifies inline, and the classify queue is
	// hash-partitioned by did across ClassifyParallelism stage workers.
	ClassifyBatch       int `json:"classify_batch"`
	ClassifyParallelism int `json:"classify_parallelism"`

	Visited     int64         `json:"visited"`
	Fetches     int64         `json:"fetches"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	PagesPerSec float64       `json:"pages_per_sec"`
}

// ThroughputConfig drives the throughput sweep: the same focused crawl over
// one doc-heavy web, one fresh system per point, with everything but the
// point's settings held fixed. Two point lists are in use (cmd/focusexp):
// GOMAXPROCS 1/2/4 at a fixed batch and stage count — on one core the
// parallel classifier stage should cost roughly nothing, on several it
// should pay — and ClassifyBatch 1/16/64, inline against the batched
// pipeline (Figure 8(a)'s set-oriented claim inside the crawl loop).
// DOCUMENT population stays on: the batch pipeline must pay the same
// per-term ingest the inline path pays.
type ThroughputConfig struct {
	Web    webgraph.Config
	Topic  string
	Seeds  int
	Budget int64
	// Workers is the fetch worker count (default 8, fixed across points).
	Workers int
	Points  []ThroughputPoint
}

func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.Topic == "" {
		c.Topic = "cycling"
	}
	if c.Seeds <= 0 {
		c.Seeds = 20
	}
	if c.Budget <= 0 {
		c.Budget = 1000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Web.NumPages <= 0 {
		c.Web = DocHeavyWeb(c.Web.Seed, 6000)
	}
	if c.Web.FetchLatency == 0 {
		// Enough latency that 8 workers overlap fetches realistically, low
		// enough that per-page CPU — the quantity batching and extra cores
		// attack — still bounds throughput.
		c.Web.FetchLatency = 500 * time.Microsecond
	} else if c.Web.FetchLatency < 0 {
		c.Web.FetchLatency = 0 // explicit zero: instantaneous fetches
	}
	return c
}

// ThroughputResult carries the measured points plus the headline: pages/sec
// at the last point over the first.
type ThroughputResult struct {
	Workers      int               `json:"workers"`
	Points       []ThroughputPoint `json:"points"`
	CrawlSpeedup float64           `json:"crawl_speedup"`
}

// RunThroughput measures end-to-end crawl throughput at each point.
// GOMAXPROCS is set around the points that ask for it and restored before
// returning.
func RunThroughput(cfg ThroughputConfig) (*ThroughputResult, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Points) == 0 {
		return nil, errors.New("eval: throughput sweep without points")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	out := &ThroughputResult{Workers: cfg.Workers}
	run := crawlRun{WebCfg: cfg.Web, Topic: cfg.Topic, Seeds: cfg.Seeds}
	for _, p := range cfg.Points {
		if p.Cores > 0 {
			runtime.GOMAXPROCS(p.Cores)
		}
		run.Crawl = crawler.Config{
			Workers:             cfg.Workers,
			MaxFetches:          cfg.Budget,
			ClassifyBatch:       p.ClassifyBatch,
			ClassifyParallelism: p.ClassifyParallelism,
		}
		sys, res, err := run.run()
		if err != nil {
			return nil, err
		}
		run.Web = sys.Web
		p.Visited, p.Fetches, p.Elapsed, p.PagesPerSec = res.Visited, res.Fetches, res.Elapsed, res.PagesPerSec
		out.Points = append(out.Points, p)
	}
	if n := len(out.Points); n > 1 && out.Points[0].PagesPerSec > 0 {
		out.CrawlSpeedup = out.Points[n-1].PagesPerSec / out.Points[0].PagesPerSec
	}
	return out, nil
}

// WriteJSON emits the sweep as indented JSON — the BENCH_cores.json
// artifact CI archives so the multicore trajectory is machine-readable
// across commits.
func (r *ThroughputResult) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Render prints the sweep table plus the headline speedup.
func (r *ThroughputResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Crawl throughput sweep (doc-heavy workload, %d workers)\n", r.Workers)
	fmt.Fprintf(w, "%-10s %6s %6s %7s %8s %8s %10s %12s\n",
		"point", "cores", "batch", "stages", "visited", "fetches", "elapsed", "pages/sec")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10s %6d %6d %7d %8d %8d %10s %12.1f\n",
			p.Label, p.Cores, p.ClassifyBatch, p.ClassifyParallelism,
			p.Visited, p.Fetches, rnd(p.Elapsed), p.PagesPerSec)
	}
	if r.CrawlSpeedup > 0 {
		fmt.Fprintf(w, "crawl speedup, %s over %s: %.2fx\n",
			r.Points[len(r.Points)-1].Label, r.Points[0].Label, r.CrawlSpeedup)
	}
}
