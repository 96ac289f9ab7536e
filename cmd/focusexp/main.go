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
// 8c (output scaling), 8d (distiller variants), plus two studies beyond
// the paper that bench/ cannot run: hostile (harvest under rate limits,
// outages, and timeouts, naive vs the polite politeness/backoff/breaker
// stack) and the crawl throughput sweep on the doc-heavy workload, along
// two point lists — classify (ClassifyBatch 1/16/64: Figure 8a's
// set-oriented claim applied to the crawl hot path) and cores (GOMAXPROCS
// 1/2/4: the multicore payoff of the parallel classifier stage). For these
// three, -json writes the study as a machine-readable artifact.
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
		fig      = flag.String("fig", "all", "figure to run: 5, 6, 7, 8a, 8b, 8c, 8d, classify, hostile, cores, all")
		seed     = flag.Int64("seed", 1999, "random seed")
		pages    = flag.Int("pages", 30000, "synthetic web size for crawl experiments")
		budget   = flag.Int64("budget", 4000, "fetch budget for crawl experiments")
		topic    = flag.String("topic", "cycling", "target topic")
		weight   = flag.Float64("weight", 3, "page-mass multiplier for the target topic")
		quick    = flag.Bool("quick", false, "smaller sizes for a fast smoke run")
		latency  = flag.Duration("latency", 50*time.Microsecond, "simulated per-page disk latency for figure 8")
		cpar     = flag.Int("classifypar", 0, "classifier-stage workers (batch queue partitioned by did) for the classify figure (0/1 = one stage)")
		cbatch   = flag.Int("classifybatch", 0, "classify figure: sweep {1, N} instead of the default batch sizes (0 = default sweep)")
		jsonPath = flag.String("json", "", "classify/hostile/cores figures: also write that study as JSON to this path (the CI BENCH_hostile.json / BENCH_cores.json artifacts; needs a single -fig)")
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

	// The throughput sweep: the same doc-heavy crawl (where per-page
	// classification and DOCUMENT ingest dominate) once per point,
	// measuring end-to-end pages/sec. The study sizes its own web; seed,
	// topic, and budget pass through.
	sweep := func(points []eval.ThroughputPoint) error {
		dense := eval.DocHeavyWeb(*seed, *pages/3)
		dense.TopicWeights = map[string]float64{*topic: *weight}
		return show(eval.RunThroughput(eval.ThroughputConfig{
			Web: dense, Topic: *topic, Budget: *budget / 2, Points: points,
		}))
	}
	run("classify", func() error {
		// Batch 1 is inline classification, the rest the batched pipeline.
		batches := []int{1, 16, 64}
		if *cbatch > 0 {
			batches = []int{1, *cbatch}
		}
		var points []eval.ThroughputPoint
		for _, b := range batches {
			points = append(points, eval.ThroughputPoint{
				Label: fmt.Sprintf("batch=%d", b), ClassifyBatch: b, ClassifyParallelism: *cpar,
			})
		}
		return sweep(points)
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

	run("cores", func() error {
		// Multicore payoff: worker, batch and classifier-stage counts are
		// fixed, so the core count is the variable, not the goroutine count.
		var points []eval.ThroughputPoint
		for _, n := range []int{1, 2, 4} {
			points = append(points, eval.ThroughputPoint{
				Label: fmt.Sprintf("cores=%d", n), Cores: n, ClassifyBatch: 16, ClassifyParallelism: 4,
			})
		}
		return sweep(points)
	})
}
