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
// 8c (output scaling), 8d (distiller variants), plus four studies beyond
// the paper: classify (the in-crawl classification batch sweep — Figure
// 8a's set-oriented claim applied to the crawl hot path), hostile (harvest
// under rate limits, outages, and timeouts, naive vs the polite
// politeness/backoff/breaker stack), cores (crawl throughput vs GOMAXPROCS
// on the doc-heavy workload — the multicore payoff of the parallel
// classifier stage), and recovery (kill-and-resume trials and checkpoint
// overhead on durable files); for hostile, cores, and recovery, -json
// writes the study as a machine-readable artifact.
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

// writeJSON writes a study to path as JSON; an empty path writes nothing.
func writeJSON(path string, study interface{ WriteJSON(io.Writer) error }) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := study.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to run: 5, 6, 7, 8a, 8b, 8c, 8d, classify, hostile, cores, recovery, all")
		seed     = flag.Int64("seed", 1999, "random seed")
		pages    = flag.Int("pages", 30000, "synthetic web size for crawl experiments")
		budget   = flag.Int64("budget", 4000, "fetch budget for crawl experiments")
		topic    = flag.String("topic", "cycling", "target topic")
		weight   = flag.Float64("weight", 3, "page-mass multiplier for the target topic")
		quick    = flag.Bool("quick", false, "smaller sizes for a fast smoke run")
		latency  = flag.Duration("latency", 50*time.Microsecond, "simulated per-page disk latency for figure 8")
		cpar     = flag.Int("classifypar", 0, "classifier-stage workers (batch queue partitioned by did) for the classify figure (0/1 = one stage)")
		cbatch   = flag.Int("classifybatch", 0, "classify figure: sweep {1, N} instead of the default batch sizes (0 = default sweep)")
		jsonPath = flag.String("json", "", "hostile/cores/recovery figures: also write that study as JSON to this path (the CI BENCH_hostile.json / BENCH_cores.json / BENCH_recovery.json artifacts; use with a single -fig)")
		dbpath   = flag.String("dbpath", "", "hostile figure: back each run's crawl relations with real durable files at this path prefix (removed after measurement) instead of the latency-simulated memory disk; the recovery figure always uses durable files")
	)
	flag.Parse()

	if *quick {
		*pages = 9000
		*budget = 900
	}
	webCfg := webgraph.Config{
		Seed:         *seed,
		NumPages:     *pages,
		TopicWeights: map[string]float64{*topic: *weight},
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
		r, err := eval.RunCoverage(eval.CoverageConfig{
			Web: webCfg, Topic: *topic, Budget: *budget,
		})
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	run("7", func() error {
		// Tighter locality and fewer shortcuts give the community the
		// deep chain structure the real Web's topical communities have;
		// see DESIGN.md on Figure 7's substitution.
		cfg := webCfg
		cfg.ShortcutProb = 0.02
		cfg.LocalityWindow = 12
		r, err := eval.RunDistance(eval.DistanceConfig{
			Web: cfg, Topic: *topic, Budget: *budget,
		})
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	run("8a", func() error {
		r, err := eval.RunClassifierPerf(eval.ClassifierPerfConfig{
			Seed: *seed, Docs: 150, Frames: 32,
			DiskLatency: 4 * *latency, BigVocab: true,
		})
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	run("8b", func() error {
		r, err := eval.RunMemoryScaling(*seed, 250, []int{128, 328, 528, 728, 928}, *latency)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	run("8c", func() error {
		r, err := eval.RunOutputScaling(*seed, []int{25, 80, 250, 800, 2500}, 2048)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	run("8d", func() error {
		// A pool far smaller than the crawl graph puts the index walk in
		// the random-I/O regime the paper measured (their graphs exceeded
		// the memory shared with classifier and crawler).
		r, err := eval.RunDistillerPerf(eval.DistillerPerfConfig{
			Web: webCfg, Topic: *topic, CrawlBudget: *budget / 2,
			Frames: 96, DiskLatency: *latency,
		})
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})

	run("classify", func() error {
		// The in-crawl classification batch sweep: end-to-end pages/sec at
		// batch 1 (inline), 16, and 64 on the doc-heavy workload, where
		// per-page classification and DOCUMENT ingest dominate.
		dense := eval.DocHeavyWeb(*seed, *pages/3)
		dense.TopicWeights = map[string]float64{*topic: *weight}
		var batches []int
		if *cbatch > 0 {
			batches = []int{1, *cbatch}
		}
		r, err := eval.RunClassifyBatch(eval.ClassifyBatchConfig{
			Web: dense, Topic: *topic,
			Budget: *budget / 2, Batches: batches, ClassifyParallelism: *cpar,
		})
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})

	run("hostile", func() error {
		// Hostile-web robustness: harvest per fetch attempt, naive vs the
		// polite stack (pacing, backoff, breakers), as the servers get
		// nastier — rate limits, outages, timeouts. The study sizes its own
		// concentrated web (few servers, so per-host budgets actually bind);
		// seed, topic, and budget pass through.
		r, err := eval.RunHostile(eval.HostileConfig{
			Seed: *seed, Topic: *topic, Budget: *budget / 4,
			DBPath: *dbpath,
		})
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return writeJSON(*jsonPath, r)
	})

	run("cores", func() error {
		// Multicore payoff: the same doc-heavy crawl (fixed worker and
		// classifier-stage counts) at GOMAXPROCS 1/2/4, measuring
		// end-to-end pages/sec. The study sizes its own doc-heavy web; seed,
		// topic, and budget pass through.
		dense := eval.DocHeavyWeb(*seed, *pages/3)
		dense.TopicWeights = map[string]float64{*topic: *weight}
		r, err := eval.RunCoreScaling(eval.CoreScalingConfig{
			Web: dense, Topic: *topic, Budget: *budget / 2,
		})
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return writeJSON(*jsonPath, r)
	})

	run("recovery", func() error {
		// Checkpoint/recovery: randomized kill-and-resume trials checked
		// bit-identical against the uninterrupted run, plus the checkpoint
		// throughput overhead (acceptance ceiling 15%). Always durable —
		// the study is about the durable files.
		r, err := eval.RunRecovery(eval.RecoveryConfig{
			Seed: *seed, Topic: *topic,
		})
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return writeJSON(*jsonPath, r)
	})
}
