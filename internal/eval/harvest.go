// Package eval contains the experiment harnesses that regenerate every
// figure of the paper's evaluation section (§3): harvest rate (Figure 5),
// coverage (Figure 6), distance-to-authority histograms (Figure 7), and the
// I/O performance studies of the classifier and distiller (Figure 8) — plus
// the one study bench/ cannot run: harvest on a hostile web. Each harness
// returns a result struct that renders the same series the paper plots;
// cmd/focusexp prints them and bench_test.go wraps them in testing.B
// benchmarks. Every crawl here goes through crawlRun.run.
package eval

import (
	"fmt"
	"io"

	"focus/internal/crawler"
	"focus/internal/webgraph"
)

// MovingAverage computes the window-sized trailing mean of the harvest
// log's relevance, one value per visited page — the y-axis of Figure 5.
func MovingAverage(log []crawler.HarvestPoint, window int) []float64 {
	if window <= 0 {
		window = 100
	}
	out := make([]float64, len(log))
	var sum float64
	for i, h := range log {
		sum += h.Relevance
		if i >= window {
			sum -= log[i-window].Relevance
		}
		n := i + 1
		if n > window {
			n = window
		}
		out[i] = sum / float64(n)
	}
	return out
}

// HarvestConfig drives the Figure 5 experiment.
type HarvestConfig struct {
	Web     webgraph.Config
	Topic   string
	Seeds   int
	Budget  int64
	Workers int
	// DistillEvery applies to the focused run only.
	DistillEvery int64
}

func (c HarvestConfig) withDefaults() HarvestConfig {
	if c.Topic == "" {
		c.Topic = "cycling"
	}
	if c.Seeds <= 0 {
		c.Seeds = 25
	}
	if c.Budget <= 0 {
		c.Budget = 3000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// HarvestSeries is one crawler's harvest trajectory.
type HarvestSeries struct {
	Mode      string
	Visited   int64
	Fetches   int64
	Avg100    []float64 // trailing window 100 per visit
	Avg1000   []float64 // trailing window 1000 per visit
	Overall   float64
	TrueFrac  float64 // ground-truth relevant fraction
	Stagnated bool
}

// HarvestResult is the Figure 5 pair: unfocused (a) and soft focus (b).
type HarvestResult struct {
	Unfocused HarvestSeries // Figure 5(a)
	SoftFocus HarvestSeries // Figure 5(b)
}

// RunHarvest reproduces Figure 5: an unfocused and a soft-focus crawl from
// identical seeds on the same web.
func RunHarvest(cfg HarvestConfig) (*HarvestResult, error) {
	cfg = cfg.withDefaults()
	out := &HarvestResult{}
	run := crawlRun{WebCfg: cfg.Web, Topic: cfg.Topic, Seeds: cfg.Seeds}
	for _, mode := range []crawler.Mode{crawler.ModeUnfocused, crawler.ModeSoftFocus} {
		run.Crawl = crawler.Config{
			Workers:    cfg.Workers,
			MaxFetches: cfg.Budget,
			Mode:       mode,
		}
		if mode == crawler.ModeSoftFocus {
			run.Crawl.DistillEvery = cfg.DistillEvery
		}
		sys, res, err := run.run()
		if err != nil {
			return nil, err
		}
		run.Web = sys.Web
		log := sys.Crawler.HarvestLog()
		var sum float64
		for _, h := range log {
			sum += h.Relevance
		}
		s := HarvestSeries{
			Visited:   res.Visited,
			Fetches:   res.Fetches,
			Avg100:    MovingAverage(log, 100),
			Avg1000:   MovingAverage(log, 1000),
			TrueFrac:  sys.TrueRelevantFraction(),
			Stagnated: res.Stagnated,
		}
		if len(log) > 0 {
			s.Overall = sum / float64(len(log))
		}
		switch mode {
		case crawler.ModeUnfocused:
			s.Mode = "unfocused"
			out.Unfocused = s
		default:
			s.Mode = "soft-focus"
			out.SoftFocus = s
		}
	}
	return out, nil
}

// Render prints both series as the paper's figure rows (sampled every
// `step` visits).
func (r *HarvestResult) Render(w io.Writer, step int) {
	if step <= 0 {
		step = 200
	}
	fmt.Fprintf(w, "Figure 5: harvest rate (moving averages over 100 and 1000 visits)\n")
	for _, s := range []HarvestSeries{r.Unfocused, r.SoftFocus} {
		fmt.Fprintf(w, "\n[%s] visited=%d fetches=%d overall=%.3f true-frac=%.3f stagnated=%v\n",
			s.Mode, s.Visited, s.Fetches, s.Overall, s.TrueFrac, s.Stagnated)
		fmt.Fprintf(w, "%10s %12s %12s\n", "#URLs", "avg(100)", "avg(1000)")
		for i := step - 1; i < len(s.Avg100); i += step {
			fmt.Fprintf(w, "%10d %12.3f %12.3f\n", i+1, s.Avg100[i], s.Avg1000[i])
		}
		if n := len(s.Avg100); n > 0 && (n%step) != 0 {
			fmt.Fprintf(w, "%10d %12.3f %12.3f\n", n, s.Avg100[n-1], s.Avg1000[n-1])
		}
	}
}
