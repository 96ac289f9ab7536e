// Command focusexp regenerates every figure of the paper's evaluation
// section (§3) on the synthetic web and prints the series as text tables.
//
// Usage:
//
//	focusexp -fig all            # everything (several minutes)
//	focusexp -fig 5 -budget 4000 # just the harvest-rate experiment
//
// Figures: 5 (harvest rate, a+b), 6 (coverage, a+b), 7 (distance
// histogram + hubs), 8a (classifier variants), 8b (memory scaling),
// 8c (output scaling), 8d (distiller variants), plus one study beyond the
// paper that bench/ cannot run: hostile (harvest under rate limits,
// outages, and timeouts, naive vs the polite politeness/backoff/breaker
// stack). For hostile, -json writes the study as a machine-readable
// artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"focus/internal/eval"
	"focus/internal/webgraph"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to run: 5, 6, 7, 8a, 8b, 8c, 8d, hostile, all")
		seed     = flag.Int64("seed", 1999, "random seed")
		pages    = flag.Int("pages", 30000, "synthetic web size for crawl experiments")
		budget   = flag.Int64("budget", 4000, "fetch budget for crawl experiments")
		topic    = flag.String("topic", "cycling", "target topic")
		weight   = flag.Float64("weight", 3, "page-mass multiplier for the target topic")
		quick    = flag.Bool("quick", false, "smaller sizes for a fast smoke run")
		latency  = flag.Duration("latency", 50*time.Microsecond, "simulated per-page disk latency for figure 8")
		jsonPath = flag.String("json", "", "hostile figure: also write the study as JSON to this path (the CI BENCH_hostile.json artifact; needs -fig hostile)")
		dbpath   = flag.String("dbpath", "", "hostile figure: back each run's crawl relations with real durable files at this path prefix (removed after measurement) instead of the latency-simulated memory disk")
	)
	flag.Parse()
	if *jsonPath != "" && *fig == "all" {
		fmt.Fprintln(os.Stderr, "focusexp: -json takes one study; name it with -fig")
		os.Exit(2)
	}

	if *quick {
		*pages = 9000
		*budget = 900
	}
	webCfg := webgraph.Config{
		Seed:         *seed,
		NumPages:     *pages,
		TopicWeights: map[string]float64{*topic: *weight},
	}

	// show prints a finished study and, for the studies that have a JSON
	// form, writes it to -json's path.
	show := func(study interface{ Render(io.Writer) }, err error) error {
		if err != nil {
			return err
		}
		study.Render(os.Stdout)
		js, ok := study.(interface{ WriteJSON(io.Writer) error })
		if !ok || *jsonPath == "" {
			return nil
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		if err := js.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	run := func(id string, fn func() error) {
		if *fig != "all" && *fig != id {
			return
		}
		fmt.Printf("== figure %s ==\n", id)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	run("5", func() error {
		r, err := eval.RunHarvest(eval.HarvestConfig{
			Web: webCfg, Topic: *topic, Budget: *budget, DistillEvery: 500,
		})
		if err != nil {
			return err
		}
		r.Render(os.Stdout, int(*budget/20))
		return nil
	})
	run("6", func() error {
		return show(eval.RunCoverage(eval.CoverageConfig{
			Web: webCfg, Topic: *topic, Budget: *budget,
		}))
	})
	run("7", func() error {
		// Tighter locality and fewer shortcuts give the community the
		// deep chain structure the real Web's topical communities have;
		// see DESIGN.md on Figure 7's substitution.
		cfg := webCfg
		cfg.ShortcutProb = 0.02
		cfg.LocalityWindow = 12
		return show(eval.RunDistance(eval.DistanceConfig{
			Web: cfg, Topic: *topic, Budget: *budget,
		}))
	})
	run("8a", func() error {
		return show(eval.RunClassifierPerf(eval.ClassifierPerfConfig{
			Seed: *seed, Docs: 150, Frames: 32,
			DiskLatency: 4 * *latency, BigVocab: true,
		}))
	})
	run("8b", func() error {
		return show(eval.RunMemoryScaling(*seed, 250, []int{128, 328, 528, 728, 928}, *latency))
	})
	run("8c", func() error {
		return show(eval.RunOutputScaling(*seed, []int{25, 80, 250, 800, 2500}, 2048))
	})
	run("8d", func() error {
		// A pool far smaller than the crawl graph puts the index walk in
		// the random-I/O regime the paper measured (their graphs exceeded
		// the memory shared with classifier and crawler).
		return show(eval.RunDistillerPerf(eval.DistillerPerfConfig{
			Web: webCfg, Topic: *topic, CrawlBudget: *budget / 2,
			Frames: 96, DiskLatency: *latency,
		}))
	})

	run("hostile", func() error {
		// Hostile-web robustness: harvest per fetch attempt, naive vs the
		// polite stack (pacing, backoff, breakers), as the servers get
		// nastier — rate limits, outages, timeouts. The study sizes its own
		// concentrated web (few servers, so per-host budgets actually bind);
		// seed, topic, and budget pass through.
		return show(eval.RunHostile(eval.HostileConfig{
			Seed: *seed, Topic: *topic, Budget: *budget / 4,
			DBPath: *dbpath,
		}))
	})
}
