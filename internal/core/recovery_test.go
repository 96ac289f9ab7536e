package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"focus/internal/crawler"
	"focus/internal/linkgraph"
	"focus/internal/relstore"
	"focus/internal/webgraph"
)

// goldenConfig is the golden-harvest recipe (see golden_test.go) with the
// durability knobs parameterized.
func goldenConfig(dbPath string, maxFetches, checkpointEvery int64) Config {
	return Config{
		Web:        webgraph.Config{Seed: 1, NumPages: 6000},
		GoodTopics: []string{"cycling"},
		DBPath:     dbPath,
		Crawl: crawler.Config{
			Workers:         1,
			MaxFetches:      maxFetches,
			DistillEvery:    150,
			CheckpointEvery: checkpointEvery,
		},
	}
}

// scoreMap reads a published score table into oid -> score.
func scoreMap(t *testing.T, tb *relstore.Table) map[int64]float64 {
	t.Helper()
	m := make(map[int64]float64)
	err := tb.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		m[tp[0].Int()] = tp[1].Float()
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func scoreMaps(t *testing.T, c *crawler.Crawler) (hubs, auth map[int64]float64) {
	t.Helper()
	tabs, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	return scoreMap(t, tabs.Hubs), scoreMap(t, tabs.Auth)
}

// TestGoldenResumeSeed1 pins bit-identical resume: the golden crawl is run
// durably with periodic checkpoints, killed partway through (the DB is
// abandoned without Close, exactly like a crash — the file recovers to the
// last checkpoint, losing the visits after it), resumed with the full
// budget, and must finish with the same harvest sequence and the same
// hub/authority scores as the uninterrupted in-memory control run. The kill
// points fall just past the first checkpoint, between the second and third,
// and past the third, all against one control run.
func TestGoldenResumeSeed1(t *testing.T) {
	control, err := NewSystem(goldenConfig("", 400, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := control.SeedTopic("cycling", 10); err != nil {
		t.Fatal(err)
	}
	ctrlRes, err := control.Run()
	if err != nil {
		t.Fatal(err)
	}
	ctrlLog := control.Crawler.HarvestLog()
	ctrlHubs, ctrlAuth := scoreMaps(t, control.Crawler)

	// Durable legs: checkpoint every 100 visits, kill at killAt fetches. The
	// tail past the last checkpoint must be lost to the crash and re-crawled
	// identically.
	for _, tc := range []struct {
		killAt, checkpoints int64
	}{{110, 1}, {250, 2}, {320, 3}} {
		t.Run(fmt.Sprintf("kill=%d", tc.killAt), func(t *testing.T) {
			dbPath := filepath.Join(t.TempDir(), "crawl.db")
			sys, err := NewSystem(goldenConfig(dbPath, tc.killAt, 100))
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.SeedTopic("cycling", 10); err != nil {
				t.Fatal(err)
			}
			res1, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res1.Checkpoints < tc.checkpoints {
				t.Fatalf("pre-kill run took %d checkpoints, want >= %d", res1.Checkpoints, tc.checkpoints)
			}
			// Crash: no Close, no final checkpoint — the in-memory DB state and
			// buffer pool are simply abandoned.

			resumed, err := ResumeSystem(goldenConfig(dbPath, 400, 100))
			if err != nil {
				t.Fatal(err)
			}
			preVisited := int64(len(resumed.Crawler.HarvestLog()))
			if preVisited >= res1.Visited {
				t.Fatalf("recovered harvest has %d visits, expected fewer than the killed run's %d (tail must be lost)",
					preVisited, res1.Visited)
			}
			res2, err := resumed.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res2.Visited != ctrlRes.Visited || res2.Fetches != ctrlRes.Fetches {
				t.Errorf("resumed visited=%d fetches=%d, control %d/%d",
					res2.Visited, res2.Fetches, ctrlRes.Visited, ctrlRes.Fetches)
			}
			log := resumed.Crawler.HarvestLog()
			if len(log) != len(ctrlLog) {
				t.Fatalf("resumed harvest has %d points, control %d", len(log), len(ctrlLog))
			}
			for i := range ctrlLog {
				if log[i] != ctrlLog[i] {
					t.Fatalf("harvest point %d diverged after resume: %+v, control %+v", i, log[i], ctrlLog[i])
				}
			}
			hubs, auth := scoreMaps(t, resumed.Crawler)
			if len(hubs) != len(ctrlHubs) || len(auth) != len(ctrlAuth) {
				t.Fatalf("score table sizes diverged: hubs %d/%d auth %d/%d",
					len(hubs), len(ctrlHubs), len(auth), len(ctrlAuth))
			}
			for oid, want := range ctrlHubs {
				if got, ok := hubs[oid]; !ok || got != want {
					t.Fatalf("hub score of %d = %v (present=%v), control %v", oid, got, ok, want)
				}
			}
			for oid, want := range ctrlAuth {
				if got, ok := auth[oid]; !ok || got != want {
					t.Fatalf("auth score of %d = %v (present=%v), control %v", oid, got, ok, want)
				}
			}
			if err := resumed.Close(); err != nil {
				t.Fatal(err)
			}

			// A closed system is resumable too: Close checkpointed, so reopening
			// must land exactly at the final state.
			again, err := ResumeSystem(goldenConfig(dbPath, 400, 100))
			if err != nil {
				t.Fatal(err)
			}
			if got := int64(len(again.Crawler.HarvestLog())); got != ctrlRes.Visited {
				t.Fatalf("post-Close reopen has %d visits, want %d", got, ctrlRes.Visited)
			}
		})
	}
}

// checkRecoveredCrawl asserts what every resumed crawl must satisfy before it
// runs on: no lost or duplicated visits, CRAWL partitions without a B+tree
// whose in-memory oid directories and frontier sets match their heaps, bare
// LINK stripes whose out-edge directories match their heaps, and every edge
// reading the forward weight checkForwardWeights states — which holds only
// if Resume re-logged the visits.
func checkRecoveredCrawl(t *testing.T, db2 *relstore.DB, st *crawler.CheckpointState, cr2 *crawler.Crawler) {
	t.Helper()
	for i := 0; i < st.FrontierShards; i++ {
		for _, name := range []string{"oid", "frontier"} {
			if db2.Table(fmt.Sprintf("CRAWL#%d", i)).Index(name) != nil {
				t.Fatalf("CRAWL#%d still has its %s index after resume", i, name)
			}
		}
	}
	if err := cr2.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	// No lost or duplicated visits: Resume already cross-checked the
	// visited row count against the persisted counter; on top of
	// that, every harvest oid must be unique and the visit sequence
	// dense in [1, Visit-at-checkpoint].
	log := cr2.HarvestLog()
	if int64(len(log)) != st.Visited {
		t.Fatalf("recovered harvest %d points, checkpoint counter %d", len(log), st.Visited)
	}
	seen := make(map[int64]bool, len(log))
	for i, h := range log {
		if seen[h.OID] {
			t.Fatalf("oid %d visited twice in recovered harvest", h.OID)
		}
		seen[h.OID] = true
		if i > 0 && log[i-1].Seq >= h.Seq {
			t.Fatalf("harvest seq not increasing at %d: %d then %d", i, log[i-1].Seq, h.Seq)
		}
	}

	checkForwardWeights(t, cr2)

	// Out-edge directory: OutEdgesLocked, which walks a source's chain, reads
	// back exactly the edges the heaps hold. CheckDirectory above already matched
	// the directories to the heaps row by row.
	heap := map[int64][]int64{}
	for i := 0; i < st.LinkStripes; i++ {
		tb := db2.Table(fmt.Sprintf("LINK#%d", i))
		if tb == nil {
			t.Fatalf("missing LINK#%d", i)
		}
		for _, name := range []string{"bysrc", "bydst"} {
			if tb.Index(name) != nil {
				t.Fatalf("LINK#%d still has its %s index after resume", i, name)
			}
		}
		err := tb.ScanCols([]int{linkgraph.ColSrc, linkgraph.ColDst}, func(_ relstore.RID, v []relstore.Value) (bool, error) {
			heap[v[0].Int()] = append(heap[v[0].Int()], v[1].Int())
			return false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	links := cr2.Links()
	for src, want := range heap {
		slices.Sort(want)
		var got []int64
		links.LockAll()
		err := links.OutEdgesLocked(src, func(dst int64, _, _ int32) (bool, error) {
			got = append(got, dst)
			return false, nil
		})
		links.UnlockAll()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("OutEdgesLocked(%d) reads %d edges, the heap holds %d out of it", src, len(got), len(want))
		}
	}
}

// TestResumeAtDifferentWorkers: the shard and stripe counts are a property
// of the stored tables, so a crawl checkpointed at Workers=4 and resumed at
// Workers=2 keeps four of each, passes the recovered-crawl checks, and spends
// the rest of its budget.
func TestResumeAtDifferentWorkers(t *testing.T) {
	cfg := Config{
		Web:        webgraph.Config{Seed: 3, NumPages: 3000},
		GoodTopics: []string{"cycling"},
		DBPath:     filepath.Join(t.TempDir(), "crawl.db"),
		Crawl: crawler.Config{
			Workers:         4,
			MaxFetches:      200,
			DistillEvery:    100,
			CheckpointEvery: 40,
		},
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SeedTopic("cycling", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Crawl.Workers = 2
	cfg.Crawl.MaxFetches = 500
	resumed, err := ResumeSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cr := resumed.Crawler
	if got := cr.Links().NumStripes(); got != 4 {
		t.Fatalf("NumStripes = %d after resume at Workers=2, want the checkpoint's 4", got)
	}
	st, err := crawler.ReadCheckpoint(resumed.DB)
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredCrawl(t, resumed.DB, st, cr)
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fetches < 500 {
		t.Fatalf("resumed crawl stopped at %d fetches (stagnated=%v), budget 500", res.Fetches, res.Stagnated)
	}
	// The resumed crawl's own checkpoints record the shards it ran with.
	after, err := crawler.ReadCheckpoint(resumed.DB)
	if err != nil {
		t.Fatal(err)
	}
	if after.Visited <= st.Visited || after.FrontierShards != 4 {
		t.Fatalf("the resumed crawl's checkpoint holds %d visits over %d frontier shards; want past %d, over the first checkpoint's 4",
			after.Visited, after.FrontierShards, st.Visited)
	}
	if res.Visited <= st.Visited || int64(len(cr.HarvestLog())) != res.Visited {
		t.Fatalf("resumed crawl visited %d (harvest log %d), checkpoint had %d",
			res.Visited, len(cr.HarvestLog()), st.Visited)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCrashStress injects a disk fault mid-crawl — the write fails
// partway through a checkpoint, the crawl aborts, and the database is
// reopened from the same memory-backed disk image, exactly what a kill -9
// between two sector writes leaves behind. The recovered crawl must have no
// lost or duplicated visits, out-edge directories matching every LINK
// stripe's heap, exact forward weights, and must run to completion. Runs with several arm points so the fault lands in
// different checkpoint phases, and at two pool sizes: in 2048 frames every
// write is a checkpoint's, in 192 the pool also writes back pages the last
// checkpoint does not reference and checkpoints under pressure, so kills land
// inside those write-backs too. Run under -race in CI.
func TestRecoveryCrashStress(t *testing.T) {
	for _, frames := range []int{2048, 192} {
		for _, armAt := range []int64{20, 200, 1200} {
			name := fmt.Sprintf("arm=%d", armAt) // the 2048 legs keep the names they had
			if frames != 2048 {
				name = fmt.Sprintf("frames=%d/%s", frames, name)
			}
			t.Run(name, func(t *testing.T) { testRecoveryCrash(t, frames, armAt) })
		}
	}
}

func testRecoveryCrash(t *testing.T, frames int, armAt int64) {
	webCfg := webgraph.Config{Seed: 3, NumPages: 3000, TimeoutRate: 0.1}
	mem := relstore.NewMemDisk()
	fd := relstore.NewFaultDisk(mem, -1)
	opts := relstore.Options{Frames: frames}
	db, err := relstore.OpenDurable(fd, opts)
	if err != nil {
		t.Fatal(err)
	}
	web, err := webgraph.Generate(webCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{GoodTopics: []string{"cycling"}}
	tree, err := markGoodTopics(web, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := trainModel(web, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := crawler.Config{
		Workers:         4,
		MaxFetches:      500,
		DistillEvery:    100,
		CheckpointEvery: 40,
		CheckpointExtra: web.ExportFetchState,
	}
	cr, err := crawler.New(db, model, NewFetcher(web), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	node := tree.ByName("cycling")
	if err := cr.Seed(web.Seeds(node.ID, 10)); err != nil {
		t.Fatal(err)
	}
	fd.Arm(armAt)
	_, runErr := cr.Run()
	tripped := fd.Tripped()
	if tripped {
		if runErr == nil || !errors.Is(runErr, relstore.ErrInjectedFault) {
			t.Fatalf("fault tripped but Run returned %v", runErr)
		}
	} else if runErr != nil {
		t.Fatal(runErr)
	}

	// "Reboot": reopen the raw disk image with a fresh pool; the
	// abandoned DB's dirty frames are gone, like RAM after a crash.
	fd.Disarm()
	db2, err := relstore.OpenDurable(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := crawler.ReadCheckpoint(db2)
	if err != nil {
		// Legitimate only when the fault killed the very first
		// crawler checkpoint: recovery then lands on the empty
		// initial generation, which holds no crawl at all.
		if tripped && strings.Contains(err.Error(), "CKPT table") {
			return
		}
		t.Fatal(err)
	}

	// Rebuild the world deterministically and resume.
	web2, err := webgraph.Generate(webCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := Config{GoodTopics: []string{"cycling"}}
	tree2, err := markGoodTopics(web2, &cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Extra) > 0 {
		if err := web2.ImportFetchState(st.Extra); err != nil {
			t.Fatal(err)
		}
	}
	model2, err := trainModel(web2, tree2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ccfg.CheckpointExtra = web2.ExportFetchState
	cr2, err := crawler.Resume(db2, model2, NewFetcher(web2), ccfg)
	if err != nil {
		t.Fatal(err)
	}

	checkRecoveredCrawl(t, db2, st, cr2)

	// The recovered crawl keeps going and finishes cleanly.
	res, err := cr2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited < st.Visited {
		t.Fatalf("resumed run went backwards: visited %d < checkpoint %d", res.Visited, st.Visited)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSmallPoolDurableCrawlStress: a durable crawl whose CheckpointEvery asks
// for more dirty pages between checkpoints than its pool has frames used to
// die with ErrPoolExhausted. It now lives within the pool: pages the last
// checkpoint does not reference are written back as frames are needed, the
// rest bring the next checkpoint forward, the budget is spent, and the file
// closes and resumes with every visit accounted for. The pool is 96 frames:
// with no B+tree on CRAWL or LINK and no LINK page rewritten after ingest,
// 128 no longer fill with dirty pages before the count-driven checkpoints.
func TestSmallPoolDurableCrawlStress(t *testing.T) {
	cfg := Config{
		Web:        webgraph.Config{Seed: 3, NumPages: 3000},
		GoodTopics: []string{"cycling"},
		DBPath:     filepath.Join(t.TempDir(), "crawl.db"),
		Frames:     96,
		Crawl: crawler.Config{
			Workers:         4,
			MaxFetches:      600,
			DistillEvery:    100,
			CheckpointEvery: 300,
		},
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SeedTopic("cycling", 10); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fetches < cfg.Crawl.MaxFetches {
		t.Fatalf("crawl stopped at %d fetches (stagnated=%v), budget %d", res.Fetches, res.Stagnated, cfg.Crawl.MaxFetches)
	}
	if byCount := cfg.Crawl.MaxFetches / cfg.Crawl.CheckpointEvery; res.Checkpoints <= byCount {
		t.Fatalf("%d checkpoints, want more than the %d CheckpointEvery alone takes: pool pressure must bring some forward",
			res.Checkpoints, byCount)
	}
	if ev := sys.DB.Pool().Stats().Evictions; ev == 0 {
		t.Fatalf("no evictions in a %d-frame pool: the crawl did not outgrow it", cfg.Frames)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// ResumeSystem is OpenFile + crawler.Resume, which refuses a file whose
	// StatusVisited rows disagree with the checkpointed counter.
	resumed, err := ResumeSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(resumed.Crawler.HarvestLog())); got != res.Visited {
		t.Fatalf("recovered %d visited rows, the crawl counted %d", got, res.Visited)
	}
	st, err := crawler.ReadCheckpoint(resumed.DB)
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredCrawl(t, resumed.DB, st, resumed.Crawler)
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
}
