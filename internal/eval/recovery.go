package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"focus/internal/core"
	"focus/internal/crawler"
	"focus/internal/relstore"
	"focus/internal/webgraph"
)

// RecoveryConfig drives the checkpoint/recovery study: the golden-style
// deterministic crawl (Workers=1, distill barrier) run durably with periodic
// checkpoints, killed at randomized points, recovered, and resumed — plus a
// checkpoint-overhead measurement on the multi-worker crawl. Two claims are
// quantified: (1) a kill-and-resume crawl ends bit-identical to the
// uninterrupted run (harvest sequence and hub/authority scores), and
// (2) checkpointing costs at most a modest throughput fraction.
type RecoveryConfig struct {
	Seed  int64
	Pages int // web size (default 6000)
	Topic string
	Seeds int
	// Budget is the full fetch budget of the equivalence runs (default 400).
	Budget int64
	// CheckpointEvery is the checkpoint cadence in visits (default 100).
	CheckpointEvery int64
	// Kills is how many randomized kill-and-resume trials to run (default 3).
	// Kill points are drawn uniformly from [CheckpointEvery+10, Budget).
	Kills int
	// OverheadBudget is the fetch budget of the overhead legs (default 1200),
	// crawled with OverheadWorkers workers (default 4) with checkpoints off
	// and on.
	OverheadBudget  int64
	OverheadWorkers int
	// Dir is where the durable files live (default os.TempDir()); every file
	// is removed when the study finishes.
	Dir string
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.Pages <= 0 {
		c.Pages = 6000
	}
	if c.Topic == "" {
		c.Topic = "cycling"
	}
	if c.Seeds <= 0 {
		c.Seeds = 10
	}
	if c.Budget <= 0 {
		c.Budget = 400
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 100
	}
	if c.Kills <= 0 {
		c.Kills = 3
	}
	if c.OverheadBudget <= 0 {
		c.OverheadBudget = 1200
	}
	if c.OverheadWorkers <= 0 {
		c.OverheadWorkers = 4
	}
	if c.Dir == "" {
		c.Dir = os.TempDir()
	}
	return c
}

// RecoveryTrial is one kill-and-resume equivalence trial.
type RecoveryTrial struct {
	// KillAt is the fetch budget of the killed run; the file is abandoned
	// without a final checkpoint, exactly like a crash at that point.
	KillAt int64 `json:"kill_at"`
	// RecoveredVisits is the harvest size recovered from the last
	// checkpoint — the crawl the crash could not take away.
	RecoveredVisits int64 `json:"recovered_visits"`
	// LostVisits is the tail the crash rolled back (re-crawled on resume).
	LostVisits int64 `json:"lost_visits"`
	// HarvestIdentical / ScoresIdentical report the bit-identity checks
	// against the uninterrupted control run: the full harvest sequence
	// (seq, oid, relevance, class) and the published hub/authority tables.
	HarvestIdentical bool `json:"harvest_identical"`
	ScoresIdentical  bool `json:"scores_identical"`
}

// RecoveryOverheadStats measures one overhead leg.
type RecoveryOverheadStats struct {
	Visited     int64         `json:"visited"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	PagesPerSec float64       `json:"pages_per_sec"`
	Checkpoints int64         `json:"checkpoints"`
	DiskReads   int64         `json:"disk_reads"`
	DiskWrites  int64         `json:"disk_writes"`
}

// RecoveryResult carries the study — the BENCH_recovery.json artifact.
type RecoveryResult struct {
	Budget          int64           `json:"budget"`
	CheckpointEvery int64           `json:"checkpoint_every"`
	Trials          []RecoveryTrial `json:"trials"`
	// AllIdentical is the headline: every trial resumed bit-identically.
	AllIdentical bool `json:"all_identical"`
	// Off/On are the overhead legs (checkpoints off vs on, same durable
	// web and budget); OverheadFrac = 1 - On.PagesPerSec/Off.PagesPerSec.
	// The acceptance ceiling is 0.15.
	Off          RecoveryOverheadStats `json:"overhead_off"`
	On           RecoveryOverheadStats `json:"overhead_on"`
	OverheadFrac float64               `json:"overhead_frac"`
}

// RunRecovery runs the study. The equivalence trials use the Workers=1
// barrier discipline under which resume is pinned bit-identical (the same
// discipline the one-shard golden equivalences use); the overhead
// legs use the ordinary multi-worker crawl, where checkpoints are
// crash-consistent but the interesting number is their cost.
func RunRecovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	cfg = cfg.withDefaults()
	mkcfg := func(dbPath string, budget, every int64) core.Config {
		return core.Config{
			Web: webgraph.Config{
				Seed:         cfg.Seed,
				NumPages:     cfg.Pages,
				TopicWeights: map[string]float64{cfg.Topic: 3},
			},
			GoodTopics: []string{cfg.Topic},
			DBPath:     dbPath,
			Crawl: crawler.Config{
				Workers:         1,
				MaxFetches:      budget,
				DistillEvery:    150,
				DistillBarrier:  true,
				CheckpointEvery: every,
			},
		}
	}
	// Control: the uninterrupted in-memory run.
	control, err := core.NewSystem(mkcfg("", cfg.Budget, 0))
	if err != nil {
		return nil, err
	}
	if err := control.SeedTopic(cfg.Topic, cfg.Seeds); err != nil {
		return nil, err
	}
	if _, err := control.Run(); err != nil {
		return nil, err
	}
	ctrlLog := control.Crawler.HarvestLog()
	ctrlHubs, ctrlAuth, err := scoreTables(control.Crawler)
	if err != nil {
		return nil, err
	}

	out := &RecoveryResult{
		Budget:          cfg.Budget,
		CheckpointEvery: cfg.CheckpointEvery,
		AllIdentical:    true,
	}
	rng := rand.New(rand.NewSource(cfg.Seed*7919 + 17))
	lo := cfg.CheckpointEvery + 10
	for trial := 0; trial < cfg.Kills; trial++ {
		killAt := lo + rng.Int63n(cfg.Budget-lo)
		path := filepath.Join(cfg.Dir, fmt.Sprintf("focus-recovery-%d-%d.db", cfg.Seed, trial))
		os.Remove(path)
		sys, err := core.NewSystem(mkcfg(path, killAt, cfg.CheckpointEvery))
		if err != nil {
			return nil, err
		}
		if err := sys.SeedTopic(cfg.Topic, cfg.Seeds); err != nil {
			return nil, err
		}
		res1, err := sys.Run()
		if err != nil {
			return nil, err
		}
		// Crash: abandon without Close — no final checkpoint.
		resumed, err := core.ResumeSystem(mkcfg(path, cfg.Budget, cfg.CheckpointEvery))
		if err != nil {
			return nil, err
		}
		t := RecoveryTrial{
			KillAt:          killAt,
			RecoveredVisits: int64(len(resumed.Crawler.HarvestLog())),
		}
		t.LostVisits = res1.Visited - t.RecoveredVisits
		if _, err := resumed.Run(); err != nil {
			return nil, err
		}
		log := resumed.Crawler.HarvestLog()
		t.HarvestIdentical = len(log) == len(ctrlLog)
		if t.HarvestIdentical {
			for i := range log {
				if log[i] != ctrlLog[i] {
					t.HarvestIdentical = false
					break
				}
			}
		}
		hubs, auth, err := scoreTables(resumed.Crawler)
		if err != nil {
			return nil, err
		}
		t.ScoresIdentical = mapsEqual(hubs, ctrlHubs) && mapsEqual(auth, ctrlAuth)
		if err := resumed.Close(); err != nil {
			return nil, err
		}
		os.Remove(path)
		if !t.HarvestIdentical || !t.ScoresIdentical {
			out.AllIdentical = false
		}
		out.Trials = append(out.Trials, t)
	}

	// Overhead: the same durable multi-worker crawl with checkpoints off
	// and on. Both legs pay CreateFile and the exit checkpoint in Close;
	// the delta is the periodic checkpoints' quiesce + flush cost.
	overhead := func(every int64) (RecoveryOverheadStats, error) {
		path := filepath.Join(cfg.Dir, fmt.Sprintf("focus-recovery-ovh-%d-%d.db", cfg.Seed, every))
		os.Remove(path)
		defer os.Remove(path)
		c := mkcfg(path, cfg.OverheadBudget, every)
		c.Crawl.Workers = cfg.OverheadWorkers
		c.Crawl.DistillBarrier = false
		c.Crawl.DistillEvery = 300
		sys, err := core.NewSystem(c)
		if err != nil {
			return RecoveryOverheadStats{}, err
		}
		if err := sys.SeedTopic(cfg.Topic, cfg.Seeds); err != nil {
			return RecoveryOverheadStats{}, err
		}
		sys.DB.Disk().Stats().Reset()
		res, err := sys.Run()
		if err != nil {
			return RecoveryOverheadStats{}, err
		}
		reads, writes := sys.DB.Disk().Stats().Snapshot()
		if err := sys.Close(); err != nil {
			return RecoveryOverheadStats{}, err
		}
		st := RecoveryOverheadStats{
			Visited:     res.Visited,
			Elapsed:     res.Elapsed,
			Checkpoints: res.Checkpoints,
			DiskReads:   reads,
			DiskWrites:  writes,
		}
		if res.Elapsed > 0 {
			st.PagesPerSec = float64(res.Visited) / res.Elapsed.Seconds()
		}
		return st, nil
	}
	if out.Off, err = overhead(0); err != nil {
		return nil, err
	}
	if out.On, err = overhead(cfg.CheckpointEvery); err != nil {
		return nil, err
	}
	if out.Off.PagesPerSec > 0 {
		out.OverheadFrac = 1 - out.On.PagesPerSec/out.Off.PagesPerSec
	}
	return out, nil
}

// scoreTables reads the published hub and authority tables into maps.
func scoreTables(c *crawler.Crawler) (hubs, auth map[int64]float64, err error) {
	tabs, err := c.Tables()
	if err != nil {
		return nil, nil, err
	}
	hubs, err = readScores(tabs.Hubs)
	if err != nil {
		return nil, nil, err
	}
	auth, err = readScores(tabs.Auth)
	return hubs, auth, err
}

// readScores materializes one (oid, score) table as a map.
func readScores(tb *relstore.Table) (map[int64]float64, error) {
	m := make(map[int64]float64)
	err := tb.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		m[t[0].Int()] = t[1].Float()
		return false, nil
	})
	return m, err
}

func mapsEqual(a, b map[int64]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// Render prints the trials and the overhead comparison.
func (r *RecoveryResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Checkpoint/recovery (budget %d, checkpoint every %d visits)\n",
		r.Budget, r.CheckpointEvery)
	fmt.Fprintf(w, "%8s %10s %6s %9s %7s\n", "kill_at", "recovered", "lost", "harvest", "scores")
	for _, t := range r.Trials {
		id := func(ok bool) string {
			if ok {
				return "same"
			}
			return "DIFF"
		}
		fmt.Fprintf(w, "%8d %10d %6d %9s %7s\n",
			t.KillAt, t.RecoveredVisits, t.LostVisits,
			id(t.HarvestIdentical), id(t.ScoresIdentical))
	}
	fmt.Fprintf(w, "all trials bit-identical to the uninterrupted run: %v\n", r.AllIdentical)
	fmt.Fprintf(w, "checkpoint overhead (%d visits, checkpoints off vs on):\n", r.Off.Visited)
	fmt.Fprintf(w, "%6s %10s %12s %12s %10s %10s\n", "ckpts", "visited", "pages/sec", "elapsed", "reads", "writes")
	fmt.Fprintf(w, "%6d %10d %12.1f %12s %10d %10d\n",
		r.Off.Checkpoints, r.Off.Visited, r.Off.PagesPerSec, rnd(r.Off.Elapsed), r.Off.DiskReads, r.Off.DiskWrites)
	fmt.Fprintf(w, "%6d %10d %12.1f %12s %10d %10d\n",
		r.On.Checkpoints, r.On.Visited, r.On.PagesPerSec, rnd(r.On.Elapsed), r.On.DiskReads, r.On.DiskWrites)
	fmt.Fprintf(w, "throughput overhead: %.1f%% (acceptance ceiling 15%%)\n", 100*r.OverheadFrac)
}

// WriteJSON emits the study as indented JSON — the BENCH_recovery.json
// artifact CI archives so the recovery guarantees stay machine-checked
// across commits.
func (r *RecoveryResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
