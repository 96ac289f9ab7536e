package eval

import (
	"fmt"
	"io"
	"time"

	"focus/internal/core"
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

// ClassifyBatchConfig drives the Figure 8(a)-style batch-size sweep run
// in-crawl: the same focused crawl over a doc-heavy web, once per
// ClassifyBatch setting, comparing end-to-end pages/sec between inline
// classification (batch <= 1) and the batched pipeline.
type ClassifyBatchConfig struct {
	Web    webgraph.Config
	Topic  string
	Seeds  int
	Budget int64
	// Workers is the fetch worker count (default 8).
	Workers int
	// Batches lists the ClassifyBatch settings to sweep (default 1, 16,
	// 64; 1 is the inline baseline).
	Batches []int
	// ClassifyParallelism is the classifier-stage worker count: the classify
	// queue is hash-partitioned by did across this many stage workers,
	// each batching, classifying, and completing its own partition
	// (default 1 — on a single core the batch plan's win is
	// set-orientation, not parallelism).
	ClassifyParallelism int
}

func (c ClassifyBatchConfig) withDefaults() ClassifyBatchConfig {
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
	if len(c.Batches) == 0 {
		c.Batches = []int{1, 16, 64}
	}
	if c.Web.NumPages <= 0 {
		c.Web = DocHeavyWeb(c.Web.Seed, 6000)
	}
	if c.Web.FetchLatency == 0 {
		// Enough latency that 8 workers overlap fetches realistically, low
		// enough that per-page CPU — the quantity batching attacks — still
		// bounds throughput.
		c.Web.FetchLatency = 500 * time.Microsecond
	} else if c.Web.FetchLatency < 0 {
		c.Web.FetchLatency = 0 // explicit zero: instantaneous fetches
	}
	return c
}

// ClassifyBatchPoint is one batch setting's measurement.
type ClassifyBatchPoint struct {
	Batch       int
	Visited     int64
	Fetches     int64
	Elapsed     time.Duration
	PagesPerSec float64
}

// ClassifyBatchResult carries the sweep plus the headline speedup.
type ClassifyBatchResult struct {
	Points []ClassifyBatchPoint
	// Speedup is pages/sec at the largest batch over the inline baseline
	// (the smallest batch swept).
	Speedup float64
}

// RunClassifyBatch measures end-to-end focused-crawl throughput as the
// classification batch size grows, one fresh system per point over the
// same synthetic web. DOCUMENT population is kept on (SkipDocuments =
// false): the batch pipeline must pay the same per-term ingest the inline
// path pays.
func RunClassifyBatch(cfg ClassifyBatchConfig) (*ClassifyBatchResult, error) {
	cfg = cfg.withDefaults()
	web, err := webgraph.Generate(cfg.Web)
	if err != nil {
		return nil, err
	}
	out := &ClassifyBatchResult{}
	for _, b := range cfg.Batches {
		web.ResetFetches()
		tree := web.Cfg.Tree
		if n := tree.ByName(cfg.Topic); n != nil {
			tree.Unmark(n.ID)
		}
		sys, err := core.NewSystemOnWeb(web, core.Config{
			GoodTopics: []string{cfg.Topic},
			Crawl: crawler.Config{
				Workers:             cfg.Workers,
				MaxFetches:          cfg.Budget,
				ClassifyBatch:       b,
				ClassifyParallelism: cfg.ClassifyParallelism,
			},
		})
		if err != nil {
			return nil, err
		}
		if err := sys.SeedTopic(cfg.Topic, cfg.Seeds); err != nil {
			return nil, err
		}
		res, err := sys.Run()
		if err != nil {
			return nil, err
		}
		p := ClassifyBatchPoint{
			Batch:   b,
			Visited: res.Visited,
			Fetches: res.Fetches,
			Elapsed: res.Elapsed,
		}
		if res.Elapsed > 0 {
			p.PagesPerSec = float64(res.Visited) / res.Elapsed.Seconds()
		}
		out.Points = append(out.Points, p)
	}
	if len(out.Points) > 1 {
		lo, hi := out.Points[0], out.Points[0]
		for _, p := range out.Points[1:] {
			if p.Batch < lo.Batch {
				lo = p
			}
			if p.Batch > hi.Batch {
				hi = p
			}
		}
		if lo.PagesPerSec > 0 {
			out.Speedup = hi.PagesPerSec / lo.PagesPerSec
		}
	}
	return out, nil
}

// Render prints the sweep table.
func (r *ClassifyBatchResult) Render(w io.Writer) {
	fmt.Fprintf(w, "In-crawl classification batch sweep (doc-heavy workload)\n")
	fmt.Fprintf(w, "%8s %10s %10s %10s %12s\n",
		"batch", "visited", "fetches", "elapsed", "pages/sec")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %10d %10d %10s %12.1f\n",
			p.Batch, p.Visited, p.Fetches, rnd(p.Elapsed), p.PagesPerSec)
	}
	if r.Speedup > 0 {
		fmt.Fprintf(w, "speedup over inline: %.2fx\n", r.Speedup)
	}
}
