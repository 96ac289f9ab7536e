package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"focus/internal/classifier"
	"focus/internal/core"
	"focus/internal/crawler"
	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/webgraph"
)

// CoreScalingConfig drives the multicore payoff study: the same doc-heavy
// focused crawl run once per GOMAXPROCS setting, with both parallel knobs —
// fetch workers and classifier-stage workers — held at the same values
// across points so the only variable is how many cores the runtime may
// use. On one core the parallel paths should cost roughly nothing over
// serial; on several they should pay: end-to-end pages/sec is the output.
type CoreScalingConfig struct {
	Web    webgraph.Config
	Topic  string
	Seeds  int
	Budget int64
	// Workers is the fetch worker count (default 8, fixed across points).
	Workers int
	// Cores lists the GOMAXPROCS values to sweep (default 1, 2, 4).
	Cores []int
	// ClassifyBatch is the classification batch size (default 16); the
	// classifier stage runs ClassifyParallelism partitions (default 4,
	// fixed across points — the core count is the variable, not the
	// goroutine count).
	ClassifyBatch       int
	ClassifyParallelism int
}

func (c CoreScalingConfig) withDefaults() CoreScalingConfig {
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
	if len(c.Cores) == 0 {
		c.Cores = []int{1, 2, 4}
	}
	if c.ClassifyBatch <= 0 {
		c.ClassifyBatch = 16
	}
	if c.ClassifyParallelism <= 0 {
		c.ClassifyParallelism = 4
	}
	if c.Web.NumPages <= 0 {
		c.Web = DocHeavyWeb(c.Web.Seed, 6000)
	}
	if c.Web.FetchLatency == 0 {
		c.Web.FetchLatency = 500 * time.Microsecond
	} else if c.Web.FetchLatency < 0 {
		c.Web.FetchLatency = 0 // explicit zero: instantaneous fetches
	}
	return c
}

// CoreScalingPoint is one GOMAXPROCS setting's measurement.
type CoreScalingPoint struct {
	Cores       int           `json:"cores"`
	Visited     int64         `json:"visited"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	PagesPerSec float64       `json:"pages_per_sec"`
}

// CoreScalingResult carries the study plus the headline speedup of the
// largest core count over the smallest.
type CoreScalingResult struct {
	Workers             int                `json:"workers"`
	ClassifyBatch       int                `json:"classify_batch"`
	ClassifyParallelism int                `json:"classify_parallelism"`
	Points              []CoreScalingPoint `json:"points"`
	CrawlSpeedup        float64            `json:"crawl_speedup"`
}

// RunCoreScaling measures end-to-end crawl throughput as GOMAXPROCS grows
// over a fixed doc-heavy workload, one fresh system per point over the same
// synthetic web. GOMAXPROCS is set around each point and restored before
// returning.
func RunCoreScaling(cfg CoreScalingConfig) (*CoreScalingResult, error) {
	cfg = cfg.withDefaults()
	web, err := webgraph.Generate(cfg.Web)
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	out := &CoreScalingResult{
		Workers:             cfg.Workers,
		ClassifyBatch:       cfg.ClassifyBatch,
		ClassifyParallelism: cfg.ClassifyParallelism,
	}
	for _, n := range cfg.Cores {
		runtime.GOMAXPROCS(n)
		web.ResetFetches()
		tree := web.Cfg.Tree
		node := tree.ByName(cfg.Topic)
		if node == nil {
			return nil, fmt.Errorf("eval: unknown topic %q", cfg.Topic)
		}
		if tree.Mark(node.ID) != taxonomy.MarkGood {
			if err := tree.MarkGood(node.ID); err != nil {
				return nil, err
			}
		}
		db := relstore.Open(relstore.Options{Frames: 4096})
		examples := classifier.Examples{}
		for _, leaf := range tree.Leaves() {
			examples[leaf.ID] = web.ExampleDocs(leaf.ID, 25)
		}
		model, err := classifier.Train(db, tree, examples, classifier.TrainConfig{})
		if err != nil {
			return nil, err
		}
		cr, err := crawler.New(db, model, core.NewFetcher(web), crawler.Config{
			Workers:             cfg.Workers,
			MaxFetches:          cfg.Budget,
			ClassifyBatch:       cfg.ClassifyBatch,
			ClassifyParallelism: cfg.ClassifyParallelism,
		})
		if err != nil {
			return nil, err
		}
		if err := cr.Seed(web.Seeds(node.ID, cfg.Seeds)); err != nil {
			return nil, err
		}
		res, err := cr.Run()
		if err != nil {
			return nil, err
		}
		p := CoreScalingPoint{
			Cores:   n,
			Visited: res.Visited,
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
			if p.Cores < lo.Cores {
				lo = p
			}
			if p.Cores > hi.Cores {
				hi = p
			}
		}
		if lo.PagesPerSec > 0 {
			out.CrawlSpeedup = hi.PagesPerSec / lo.PagesPerSec
		}
	}
	return out, nil
}

// WriteJSON emits the study as indented JSON — the BENCH_cores.json
// artifact CI archives so the multicore trajectory is machine-readable
// across commits.
func (r *CoreScalingResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render prints the core sweep plus the headline speedup.
func (r *CoreScalingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Core scaling (doc-heavy workload; %d workers, batch %d x %d stages)\n",
		r.Workers, r.ClassifyBatch, r.ClassifyParallelism)
	fmt.Fprintf(w, "%6s %8s %10s %12s\n", "cores", "visited", "elapsed", "pages/sec")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%6d %8d %10s %12.1f\n", p.Cores, p.Visited, rnd(p.Elapsed), p.PagesPerSec)
	}
	if r.CrawlSpeedup > 0 {
		fmt.Fprintf(w, "crawl speedup at max cores: %.2fx\n", r.CrawlSpeedup)
	}
}
