package eval

import (
	"fmt"
	"io"
	"os"
	"time"

	"focus/internal/crawler"
	"focus/internal/webgraph"
)

// DefaultHostileLevel is the hostility the headline polite-vs-naive gain is
// quoted at (and the level the regression test pins).
const DefaultHostileLevel = 2

// HostileWeb returns a webgraph whose servers fight back, scaled by a
// hostility level: per-server rate limiting (429s past a capacity budget),
// random host outages (the whole server goes dark for a stretch), and an
// elevated timeout rate. Level 0 is the clean control — same graph, same
// fetch latency, no rate limits or outages — so the polite stack's overhead
// on a friendly web is measurable too. The graph structure depends only on
// the seed, so every level crawls the same web; only the servers' behavior
// changes.
func HostileWeb(seed int64, pages, level int) webgraph.Config {
	cfg := webgraph.Config{
		Seed:         seed,
		NumPages:     pages,
		TopicWeights: map[string]float64{"cycling": 3},
		// Few servers: topic-affine assignment then concentrates a focused
		// crawl on a handful of hosts, the regime where per-host budgets
		// actually constrain an 8-worker crawl.
		NumServers: 24,
		// Real latency makes real time (windows, outages, cooldowns)
		// meaningful, and makes pages/sec a latency-bound figure as in the
		// crawl-scaling study.
		FetchLatency: 2 * time.Millisecond,
	}
	if level <= 0 {
		return cfg
	}
	// The rate limit is the sharp edge: 2 fetches per window is far below
	// what eight naive workers pour into a hot community host, and the
	// window widens with the level.
	cfg.ServerCapacity = 2
	cfg.ServerWindow = time.Duration(10+10*level) * time.Millisecond
	cfg.OutageRate = 0.015 * float64(level)
	cfg.OutageLength = time.Duration(50*level) * time.Millisecond
	cfg.TimeoutRate = 0.01 + 0.01*float64(level)
	return cfg
}

// HostileConfig drives the hostile-web study.
type HostileConfig struct {
	Seed    int64
	Pages   int // web size (default 6000)
	Topic   string
	Seeds   int
	Budget  int64 // fetch-attempt budget per run (default 900)
	Workers int
	// Levels are the hostility levels to measure (default 0..3).
	Levels []int
	// DBPath, when set, backs each run's crawl relations with a real
	// durable file ("<DBPath>.l<level>.<mode>", removed after measurement)
	// via core.Config.DBPath, with a 200-visit checkpoint cadence — the
	// hostile study measured against genuine disk I/O.
	DBPath string
}

func (c HostileConfig) withDefaults() HostileConfig {
	if c.Pages <= 0 {
		c.Pages = 6000
	}
	if c.Topic == "" {
		c.Topic = "cycling"
	}
	if c.Seeds <= 0 {
		c.Seeds = 20
	}
	if c.Budget <= 0 {
		c.Budget = 900
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if len(c.Levels) == 0 {
		c.Levels = []int{0, 1, 2, 3}
	}
	return c
}

// HostileRunStats is one crawl's measurement at a fixed hostility level and
// politeness setting. Harvest here is ground truth per fetch *attempt*, not
// per visit: relevant pages acquired divided by budget burned, so fetches
// wasted on 429s, dark hosts, and doomed retries all show up.
type HostileRunStats struct {
	Visited     int64         `json:"visited"`
	Fetches     int64         `json:"fetches"`
	Relevant    int64         `json:"relevant"` // ground-truth relevant visits
	Harvest     float64       `json:"harvest"`  // Relevant / Fetches
	Elapsed     time.Duration `json:"elapsed_ns"`
	PagesPerSec float64       `json:"pages_per_sec"`
	// The failure breakdown, straight from crawler.Result.
	Timeouts     int64                       `json:"timeouts"`
	NotFound     int64                       `json:"not_found"`
	RateLimited  int64                       `json:"rate_limited"`
	Retries      int64                       `json:"retries"`
	BreakerTrips int64                       `json:"breaker_trips"`
	Dead         int64                       `json:"dead"`
	DeadByCause  map[crawler.DeadCause]int64 `json:"dead_by_cause,omitempty"`
	// DiskReads/DiskWrites are the crawl DB's physical page I/O — pool
	// traffic in memory-backed runs, real file I/O (checkpoint flushes
	// included) when HostileConfig.DBPath is set.
	DiskReads  int64 `json:"disk_reads"`
	DiskWrites int64 `json:"disk_writes"`
}

// HostilePoint pairs the naive and polite measurements at one level.
type HostilePoint struct {
	Level  int             `json:"level"`
	Naive  HostileRunStats `json:"naive"`
	Polite HostileRunStats `json:"polite"`
	// PoliteGain is polite harvest over naive harvest — how many more
	// relevant pages the polite crawler buys with the same fetch budget.
	PoliteGain float64 `json:"polite_gain"`
}

// HostileResult carries the study.
type HostileResult struct {
	Workers int            `json:"workers"`
	Budget  int64          `json:"budget"`
	Points  []HostilePoint `json:"points"`
}

// RunHostile measures focused-crawl harvest (ground-truth relevant pages
// per fetch attempt) and throughput across hostility levels, naive vs
// polite, both runs on the same web per level with the fetch state reset
// between them. The naive config is the pre-politeness crawler: immediate
// requeue on failure, no pacing, no breaker. The polite config sets
// crawler.Config.Polite: paced, breakered, backing off. Everything else —
// seeds, budget, workers, classifier — is identical.
func RunHostile(cfg HostileConfig) (*HostileResult, error) {
	cfg = cfg.withDefaults()
	out := &HostileResult{Workers: cfg.Workers, Budget: cfg.Budget}
	for _, level := range cfg.Levels {
		wcfg := HostileWeb(cfg.Seed, cfg.Pages, level)
		wcfg.TopicWeights = map[string]float64{cfg.Topic: 3}
		web, err := webgraph.Generate(wcfg)
		if err != nil {
			return nil, err
		}
		run := func(polite bool) (HostileRunStats, error) {
			r := crawlRun{
				Web: web, Topic: cfg.Topic, Seeds: cfg.Seeds,
				Crawl: crawler.Config{Workers: cfg.Workers, MaxFetches: cfg.Budget},
			}
			mode := "naive"
			if polite {
				mode = "polite"
				r.Crawl.Polite = true
			}
			if cfg.DBPath != "" {
				r.DBPath = fmt.Sprintf("%s.l%d.%s", cfg.DBPath, level, mode)
				r.Crawl.CheckpointEvery = 200
				defer os.Remove(r.DBPath)
			}
			sys, res, err := r.run()
			if err != nil {
				return HostileRunStats{}, err
			}
			defer sys.Close()
			var rel int64
			for _, h := range sys.Crawler.HarvestLog() {
				if p := web.PageByURL(h.URL); p != nil && sys.Tree.IsGoodOrSubsumed(p.Topic) {
					rel++
				}
			}
			st := HostileRunStats{
				Visited:      res.Visited,
				Fetches:      res.Fetches,
				Relevant:     rel,
				Elapsed:      res.Elapsed,
				PagesPerSec:  res.PagesPerSec,
				Timeouts:     res.TimeoutFailures,
				NotFound:     res.NotFoundFailures,
				RateLimited:  res.RateLimitedFailures,
				Retries:      res.Retries,
				BreakerTrips: res.BreakerTrips,
				Dead:         res.Dead,
				DeadByCause:  res.DeadByCause,
				DiskReads:    res.DiskReads,
				DiskWrites:   res.DiskWrites,
			}
			if res.Fetches > 0 {
				st.Harvest = float64(rel) / float64(res.Fetches)
			}
			return st, nil
		}
		p := HostilePoint{Level: level}
		if p.Naive, err = run(false); err != nil {
			return nil, err
		}
		if p.Polite, err = run(true); err != nil {
			return nil, err
		}
		if p.Naive.Harvest > 0 {
			p.PoliteGain = p.Polite.Harvest / p.Naive.Harvest
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// PointAt returns the point measured at the given hostility level, if any.
func (r *HostileResult) PointAt(level int) (HostilePoint, bool) {
	for _, p := range r.Points {
		if p.Level == level {
			return p, true
		}
	}
	return HostilePoint{}, false
}

// WriteJSON emits the study as indented JSON — the BENCH_hostile.json
// artifact CI archives so the robustness trajectory is machine-readable
// across commits.
func (r *HostileResult) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Render prints the study table plus the headline gain at the default
// hostile level.
func (r *HostileResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Hostile-web robustness (%d workers, %d-fetch budget, naive vs polite)\n",
		r.Workers, r.Budget)
	fmt.Fprintf(w, "%5s %7s %8s %8s %8s %8s %6s %5s %6s %7s %10s %8s %8s %6s\n",
		"level", "mode", "visited", "fetches", "relevant", "harvest",
		"429s", "dark", "retry", "breaker", "pages/sec", "reads", "writes", "gain")
	for _, p := range r.Points {
		line := func(mode string, s HostileRunStats, gain string) {
			fmt.Fprintf(w, "%5d %7s %8d %8d %8d %8.3f %6d %5d %6d %7d %10.1f %8d %8d %6s\n",
				p.Level, mode, s.Visited, s.Fetches, s.Relevant, s.Harvest,
				s.RateLimited, s.Timeouts, s.Retries, s.BreakerTrips,
				s.PagesPerSec, s.DiskReads, s.DiskWrites, gain)
		}
		line("naive", p.Naive, "")
		line("polite", p.Polite, fmt.Sprintf("%.2fx", p.PoliteGain))
	}
	if p, ok := r.PointAt(DefaultHostileLevel); ok {
		fmt.Fprintf(w, "polite harvest gain at level %d: %.2fx (acceptance floor 1.3x)\n",
			DefaultHostileLevel, p.PoliteGain)
	}
}
