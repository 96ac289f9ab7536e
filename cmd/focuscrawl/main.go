// Command focuscrawl runs one focused (or unfocused) crawl on a synthetic
// web and reports the harvest, census, and top hubs/authorities — the
// day-to-day operator view of the Focus system.
package main

import (
	"flag"
	"fmt"
	"os"

	"focus/internal/core"
	"focus/internal/crawler"
	"focus/internal/eval"
	"focus/internal/webgraph"
)

func main() {
	var (
		seed    = flag.Int64("seed", 7, "random seed")
		pages   = flag.Int("pages", 20000, "synthetic web size")
		topic   = flag.String("topic", "cycling", "good topic (see webgen -topics)")
		weight  = flag.Float64("weight", 3, "page-mass multiplier for the topic")
		seeds   = flag.Int("seeds", 25, "seed URLs")
		budget  = flag.Int64("budget", 2000, "fetch budget")
		workers = flag.Int("workers", 8, "crawler threads")
		mode    = flag.String("mode", "soft", "soft | hard | unfocused")
		distill = flag.Int64("distill", 500, "distill every N visits (0 = off)")
		polite  = flag.Bool("polite", false, "enable the politeness stack: per-host pacing, retry backoff, circuit breakers")
		hostile = flag.Int("hostile", 0, "web hostility level (eval.HostileWeb): per-server rate limits, outages, extra timeouts; 0 = the plain web")
		dbpath  = flag.String("dbpath", "", "back the crawl relations with this durable file instead of memory (required for -checkpointevery and -resume)")
		ckevery = flag.Int64("checkpointevery", 0, "checkpoint the crawl at least every N visits (0 = at exit, and before that only when the dirty pages awaiting a checkpoint fill half the buffer pool; needs -dbpath)")
		resume  = flag.Bool("resume", false, "resume the crawl recorded in -dbpath from its last checkpoint instead of starting fresh")
	)
	flag.Parse()

	var m crawler.Mode
	switch *mode {
	case "soft":
		m = crawler.ModeSoftFocus
	case "hard":
		m = crawler.ModeHardFocus
	case "unfocused":
		m = crawler.ModeUnfocused
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	wcfg := webgraph.Config{
		Seed:         *seed,
		NumPages:     *pages,
		TopicWeights: map[string]float64{*topic: *weight},
	}
	if *hostile > 0 {
		wcfg = eval.HostileWeb(*seed, *pages, *hostile)
		wcfg.TopicWeights = map[string]float64{*topic: *weight}
	}
	ccfg := crawler.Config{
		Workers:      *workers,
		MaxFetches:   *budget,
		Mode:         m,
		DistillEvery: *distill,
		Polite:       *polite,
	}
	if (*ckevery > 0 || *resume) && *dbpath == "" {
		fmt.Fprintln(os.Stderr, "-checkpointevery and -resume need -dbpath")
		os.Exit(2)
	}
	ccfg.CheckpointEvery = *ckevery
	syscfg := core.Config{
		Web:        wcfg,
		GoodTopics: []string{*topic},
		Crawl:      ccfg,
		DBPath:     *dbpath,
	}
	var sys *core.System
	var err error
	if *resume {
		// The recovered crawl is already seeded; just spend the remaining
		// budget.
		sys, err = core.ResumeSystem(syscfg)
	} else {
		sys, err = core.NewSystem(syscfg)
		if err == nil {
			err = sys.SeedTopic(*topic, *seeds)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := sys.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *dbpath != "" {
		// Final checkpoint + close, so the file is resumable at exactly
		// this state.
		defer func() {
			if err := sys.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	fmt.Printf("crawl finished in %v\n", res.Elapsed.Round(1e6))
	fmt.Printf("  visited=%d fetches=%d failed=%d dead=%d distills=%d checkpoints=%d stagnated=%v\n",
		res.Visited, res.Fetches, res.Failed, res.Dead, res.Distills, res.Checkpoints, res.Stagnated)
	if res.Failed > 0 {
		fmt.Printf("  failures: timeout=%d notfound=%d ratelimited=%d retries=%d breakertrips=%d\n",
			res.TimeoutFailures, res.NotFoundFailures, res.RateLimitedFailures,
			res.Retries, res.BreakerTrips)
	}
	if len(res.DeadByCause) > 0 {
		fmt.Printf("  dead by cause:")
		for _, cause := range []crawler.DeadCause{
			crawler.CauseNotFound, crawler.CauseTimeoutBudget,
			crawler.CauseRateLimited, crawler.CauseBreaker,
		} {
			if n := res.DeadByCause[cause]; n > 0 {
				fmt.Printf(" %s=%d", cause, n)
			}
		}
		fmt.Println()
	}
	if res.Distills > 0 {
		fmt.Printf("  distill stall=%v compute=%v\n",
			res.DistillStall.Round(1e6), res.DistillCompute.Round(1e6))
	}
	fmt.Printf("  true relevant fraction (ground truth): %.3f\n\n", sys.TrueRelevantFraction())

	fmt.Println("harvest by 100-visit window:")
	buckets, err := sys.Crawler.HarvestByWindow(100)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, b := range buckets {
		fmt.Printf("  %6d-%6d  avg exp(relevance) %.3f\n", b.Bucket*100, b.Bucket*100+99, b.AvgExpRel)
	}

	fmt.Println("\nclass census (top 8):")
	census, _ := sys.Crawler.CensusByClass()
	for i := len(census) - 1; i >= 0 && i >= len(census)-8; i-- {
		fmt.Printf("  %-16s %6d\n", census[i].Name, census[i].Count)
	}

	if *distill > 0 {
		fmt.Println("\ntop hubs:")
		hubs, _ := sys.Crawler.TopHubURLs(10)
		for _, h := range hubs {
			fmt.Printf("  %.5f  %s\n", h.Score, h.URL)
		}
		fmt.Println("\ntop authorities:")
		auths, _ := sys.Crawler.TopAuthorityURLs(10)
		for _, a := range auths {
			fmt.Printf("  %.5f  %s\n", a.Score, a.URL)
		}
	}
}
