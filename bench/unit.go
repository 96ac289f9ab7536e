package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"focus/internal/classifier"
	"focus/internal/core"
	"focus/internal/crawler"
	"focus/internal/distiller"
	"focus/internal/relstore"
	"focus/internal/webgraph"
)

// unitResult is what one unit — one crawl of a workload, set-up included —
// reports to the run that started it.
type unitResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Attempted counts fetch attempts plus monitoring queries; Failed the
	// operations lost to anything but the web's own scripted faults. A unit
	// that fails verification counts every operation failed.
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// Values holds the unit's value of every metric it measured.
	Values map[string]float64 `json:"values"`
}

// delta is what the public stat islands and the runtime counted across one
// or more calls of Run.
type delta struct {
	hits, misses, evictions int64
	reads, writes           int64
	sweeps, probes          int64
	allocBytes, mallocs     uint64
	gcCycles                uint32
	gcPauseNS               uint64
	cpu                     time.Duration
}

// measured runs fn between two snapshots of sys's counters and adds the
// difference to d.
func (d *delta) measured(sys *core.System, fn func() error) error {
	var m0, m1 runtime.MemStats
	pool, disk, links := sys.DB.Pool(), sys.DB.Disk().Stats(), sys.Crawler.Links()
	p0 := pool.Stats()
	r0, w0 := disk.Snapshot()
	s0, q0 := links.SweepStats()
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	err := fn()
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	s1, q1 := links.SweepStats()
	r1, w1 := disk.Snapshot()
	p1 := pool.Stats()
	d.hits += p1.Hits - p0.Hits
	d.misses += p1.Misses - p0.Misses
	d.evictions += p1.Evictions - p0.Evictions
	d.reads += r1 - r0
	d.writes += w1 - w0
	d.sweeps += s1 - s0
	d.probes += q1 - q0
	d.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	d.mallocs += m1.Mallocs - m0.Mallocs
	d.gcCycles += m1.NumGC - m0.NumGC
	d.gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
	d.cpu += c1 - c0
	return err
}

// trainModel trains the classifier exactly as core does (25 examples per
// leaf topic, default TrainConfig), so core.ResumeSystem retrains the same
// model.
func trainModel(web *webgraph.Web, db *relstore.DB) (*classifier.Model, error) {
	tree := web.Cfg.Tree
	examples := classifier.Examples{}
	for _, leaf := range tree.Leaves() {
		examples[leaf.ID] = web.ExampleDocs(leaf.ID, 25)
	}
	return classifier.Train(db, tree, examples, classifier.TrainConfig{})
}

// openStore opens a fresh database of the workload's kind at path.
func openStore(w workload, path string) (*relstore.DB, error) {
	opts := relstore.Options{Frames: w.Frames}
	switch w.Store {
	case storeFile:
		disk, err := relstore.OpenFileDisk(path)
		if err != nil {
			return nil, err
		}
		opts.Disk = disk
	case storeDurable:
		return relstore.CreateFile(path, opts)
	}
	return relstore.Open(opts), nil
}

// newSystem composes a system the way core.NewSystemOnWeb does, with two
// things core does not offer: the fetcher is the caller's (so a traced unit
// can wrap it), and the relations may sit on a plain file behind a steal
// pool. As in core, a file-backed system keeps the classifier's statistics
// in a side in-memory DB.
func newSystem(w workload, ccfg crawler.Config, web *webgraph.Web, fetcher crawler.Fetcher, path string) (*core.System, error) {
	tree := web.Cfg.Tree
	node := tree.ByName(goodTopic)
	if node == nil {
		return nil, fmt.Errorf("unknown topic %q", goodTopic)
	}
	if err := tree.MarkGood(node.ID); err != nil {
		return nil, err
	}
	db, err := openStore(w, path)
	if err != nil {
		return nil, err
	}
	trainDB := db
	if w.Store != storeMem {
		trainDB = relstore.Open(relstore.Options{Frames: 4096})
	}
	if w.Store == storeDurable {
		ccfg.CheckpointExtra = web.ExportFetchState
	}
	model, err := trainModel(web, trainDB)
	if err != nil {
		return nil, err
	}
	cr, err := crawler.New(db, model, fetcher, ccfg)
	if err != nil {
		return nil, err
	}
	return &core.System{Web: web, Tree: tree, DB: db, Model: model, Crawler: cr}, nil
}

// The four monitoring queries of the monitor client and of the operator's
// end-of-crawl report, in the order they cycle.
var queryNames = [...]string{"harvest", "census", "tophubs", "missed"}

const thinkTime = 20 * time.Millisecond

// errNotReady reports a query that needs distilled scores before the first
// epoch has published them: not a sample, and not a failure.
var errNotReady = errors.New("no distillation epoch published yet")

func runQuery(cr *crawler.Crawler, kind int) error {
	var err error
	switch kind {
	case 0:
		_, err = cr.HarvestByWindow(100)
	case 1:
		_, err = cr.CensusByClass()
	case 2:
		var hubs []crawler.ScoredURL
		if hubs, err = cr.TopHubURLs(10); err == nil && len(hubs) == 0 {
			err = errNotReady
		}
	case 3:
		_, err = cr.MissedNeighbors(0.9)
	}
	if errors.Is(err, crawler.ErrNoDistillation) {
		return errNotReady
	}
	return err
}

// queryLog collects query latencies by kind.
type queryLog struct {
	ms     [len(queryNames)][]float64
	issued int64
	failed int64
}

func (q *queryLog) issue(cr *crawler.Crawler, kind int) {
	t0 := time.Now()
	err := runQuery(cr, kind)
	took := ms(time.Since(t0))
	switch {
	case err == nil:
		q.issued++
		q.ms[kind] = append(q.ms[kind], took)
	case !errors.Is(err, errNotReady):
		q.issued++
		q.failed++
	}
}

func (q *queryLog) pooled() []float64 {
	var all []float64
	for _, ms := range q.ms {
		all = append(all, ms...)
	}
	return all
}

// monitorClient is the monitor workload's one client: a closed loop that
// thinks for thinkTime, issues the next query of the cycle and waits for
// its answer, until stop closes.
func monitorClient(cr *crawler.Crawler, stop <-chan struct{}) *queryLog {
	q := &queryLog{}
	think := time.NewTimer(thinkTime)
	defer think.Stop()
	for kind := 0; ; kind = (kind + 1) % len(queryNames) {
		select {
		case <-stop:
			return q
		case <-think.C:
		}
		q.issue(cr, kind)
		think.Reset(thinkTime)
	}
}

// reportQueries is how many queries the end-of-crawl report issues: twelve
// rounds of the mix, about two hundred samples in a run's pool.
const reportQueries = 12 * len(queryNames)

// crawlFacts is what a finished crawl hands to verification.
type crawlFacts struct {
	w   workload
	web *webgraph.Web
	sys *core.System // the live system: the resumed one on a durable workload
	res crawler.Result
	log []crawler.HarvestPoint
	// Durable workloads: the crashed phase's result and what recovery
	// found in the file.
	phase1    crawler.Result
	recovered *crawler.CheckpointState
}

// runUnit runs one unit of w on the web derived from seed. Files go under
// dir, which the caller owns. A traced unit wraps the fetcher in a
// span-recording one, replays the crawl stage by stage, times the B+tree,
// and writes trace-<workload>.json to traceDir.
func runUnit(w workload, seed int64, traced bool, dir, traceDir string) (*unitResult, error) {
	unitStart := time.Now()
	u := &unitResult{Workload: w.Name, Seed: seed, Values: map[string]float64{}}
	v := u.Values
	path := filepath.Join(dir, w.Name+".db")

	// Set-up: generate the web, train the classifier, open the store, seed.
	w.Web.Seed = seed
	t0 := time.Now()
	web, err := webgraph.Generate(w.Web)
	if err != nil {
		return nil, err
	}
	v["webgraph.generate_ms"] = ms(time.Since(t0))
	fetcher := core.NewFetcher(web)
	var fetchSpans *spanFetcher
	if traced {
		fetchSpans = &spanFetcher{inner: fetcher, t0: unitStart}
		fetcher = fetchSpans
	}
	ccfg := w.Crawl
	ccfg.Workers = w.workers()
	first := ccfg
	if w.CrashAt > 0 {
		first.MaxFetches = w.CrashAt
	}
	sys, err := newSystem(w, first, web, fetcher, path)
	if err != nil {
		return nil, err
	}
	if err := sys.SeedTopic(goodTopic, seedURLs); err != nil {
		return nil, err
	}
	v["setup_s"] = time.Since(t0).Seconds()

	// The crawl, between counter snapshots.
	var d delta
	f := crawlFacts{w: w}
	queries := &queryLog{}
	run := func(sys *core.System) (res crawler.Result, err error) {
		err = d.measured(sys, func() error {
			res, err = sys.Run()
			return err
		})
		return res, err
	}
	if w.Monitor {
		stop, done := make(chan struct{}), make(chan *queryLog)
		go func() { done <- monitorClient(sys.Crawler, stop) }()
		f.res, err = run(sys)
		close(stop)
		queries = <-done
	} else {
		f.res, err = run(sys)
	}
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	elapsed := f.res.Elapsed
	epochs, compute, stall := f.res.Distills, f.res.DistillCompute, f.res.DistillStall
	u.Attempted = f.res.Fetches
	if w.CrashAt > 0 {
		// The crash: sys is abandoned without Close, so the file holds
		// what the last checkpoint left and the journal can undo. Resume
		// recovers it, regenerates the web and retrains the classifier.
		f.phase1 = f.res
		t := time.Now()
		sys, err = core.ResumeSystem(core.Config{
			Web: w.Web, GoodTopics: []string{goodTopic},
			Crawl: ccfg, Frames: w.Frames, DBPath: path,
		})
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		resume := time.Since(t)
		if f.recovered, err = crawler.ReadCheckpoint(sys.DB); err != nil {
			return nil, err
		}
		if f.res, err = run(sys); err != nil {
			return nil, fmt.Errorf("resumed run: %w", err)
		}
		elapsed += resume + f.res.Elapsed
		// A resumed crawler restores its epoch count and starts its timers
		// at zero.
		epochs += f.res.Distills - f.recovered.Distills
		compute += f.res.DistillCompute
		stall += f.res.DistillStall
		u.Attempted += f.res.Fetches - f.recovered.Fetches
		v["core.resume_ms"] = ms(resume)
		v["core.lost_visits_on_crash"] = float64(f.phase1.Visited - f.recovered.Visited)
	}
	f.sys, f.log = sys, sys.Crawler.HarvestLog()
	visited := float64(f.res.Visited)

	if v["peak_rss_mib"], err = peakRSSMiB(); err != nil {
		return nil, err
	}
	var relevance float64
	for _, h := range f.log {
		relevance += h.Relevance
	}
	v["pages_per_s"] = ratio(visited, elapsed.Seconds())
	v["harvest_rate"] = ratio(relevance, float64(f.res.Fetches))
	v["true_relevant_frac"] = sys.TrueRelevantFraction()
	dbPages := sys.DB.Disk().NumPages()
	v["db_kib_per_visit"] = ratio(float64(dbPages*relstore.PageSize)/1024, visited)

	// The operator's end-of-crawl report, as focuscrawl prints it. A crawl
	// that ran without distillation asks for one epoch first, so every
	// workload has a hub/authority refresh and the full query mix to time.
	if epochs > 0 {
		v["distill_epoch_s"] = compute.Seconds() / float64(epochs)
	} else {
		tables, err := sys.Crawler.Tables()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := distiller.RunJoin(sys.DB, tables, ccfg.Distill); err != nil {
			return nil, fmt.Errorf("post-crawl epoch: %w", err)
		}
		v["distill_epoch_s"] = time.Since(t).Seconds()
	}
	if !w.Monitor {
		for i := 0; i < reportQueries; i++ {
			queries.issue(sys.Crawler, i%len(queryNames))
		}
	}
	queryMS := queries.pooled()
	u.Attempted += queries.issued
	u.Failed = queries.failed
	for kind, name := range queryNames {
		v["crawler.q_"+name+"_ms_p50"] = median(queries.ms[kind])
	}
	v["crawler.query_p50_ms"] = median(queryMS)
	v["crawler.query_p95_ms"] = quantile(queryMS, 0.95)

	u.Violations = verify(f)
	if len(queryMS) == 0 {
		u.Violations = append(u.Violations, "no monitoring query was answered")
	}

	// On a durable store Close takes the final checkpoint; the file is then
	// what a user keeps.
	if err := sys.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if w.Store == storeDurable {
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		v["db_kib_per_visit"] = ratio(float64(st.Size())/1024, visited)
	}

	// Per-layer numbers of the crawl itself: the stat islands' deltas.
	fetches := float64(d.hits + d.misses)
	v["webgraph.fail_ratio"] = ratio(float64(f.res.Failed), float64(f.res.Fetches))
	v["linkgraph.probes_per_sweep"] = ratio(float64(d.probes), float64(d.sweeps))
	v["distiller.stall_ms_per_epoch"] = ratio(ms(stall), float64(epochs))
	v["distiller.compute_share"] = ratio(compute.Seconds(), elapsed.Seconds())
	v["relstore.pool_fetches_per_visit"] = ratio(fetches, visited)
	v["relstore.pool_hit_ratio"] = ratio(float64(d.hits), fetches)
	v["relstore.evictions_per_visit"] = ratio(float64(d.evictions), visited)
	v["relstore.disk_reads_per_visit"] = ratio(float64(d.reads), visited)
	v["relstore.disk_writes_per_visit"] = ratio(float64(d.writes), visited)
	v["relstore.db_pages"] = float64(dbPages)
	v["crawler.cpu_ms_per_visit"] = ratio(ms(d.cpu), visited)
	v["crawler.retries_per_fetch"] = ratio(float64(f.res.Retries), float64(f.res.Fetches))
	v["crawler.checkpoints"] = float64(f.phase1.Checkpoints + f.res.Checkpoints)
	v["runtime.alloc_kib_per_visit"] = ratio(float64(d.allocBytes)/1024, visited)
	v["runtime.mallocs_per_visit"] = ratio(float64(d.mallocs), visited)
	v["runtime.gc_cycles"] = float64(d.gcCycles)
	v["runtime.gc_pause_ms"] = ms(time.Duration(d.gcPauseNS))

	if traced {
		if err := traceUnit(u, f, d, fetchSpans, dir, traceDir, unitStart); err != nil {
			return nil, err
		}
	}
	if len(u.Violations) > 0 {
		u.Failed = u.Attempted
	}
	return u, nil
}

// traceUnit adds what only a traced unit measures: the fetch spans of its
// crawl, the stage replay, classifier training and the B+tree timed on
// their own, and the trace file.
func traceUnit(u *unitResult, f crawlFacts, d delta, fetchSpans *spanFetcher, dir, traceDir string, t0 time.Time) error {
	v := u.Values
	var fetchUS []float64
	for _, s := range fetchSpans.spans {
		if s.Name == "webgraph.fetch" {
			fetchUS = append(fetchUS, us(s.dur()))
		}
	}
	v["webgraph.fetch_us_p50"] = median(fetchUS)
	v["webgraph.fetch_us_p99"] = quantile(fetchUS, 0.99)

	t := time.Now()
	if _, err := trainModel(f.sys.Web, relstore.Open(relstore.Options{Frames: 4096})); err != nil {
		return err
	}
	v["classifier.train_ms"] = ms(time.Since(t))

	rp, err := replay(f.w, f.sys.Web, f.sys.Model, f.log, filepath.Join(dir, "replay.db"), t0)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	maps.Copy(v, rp.values)
	v["crawler.residual_share"] = 1 - ratio(rp.layerTime.Seconds(), d.cpu.Seconds())
	if rp.mismatches > 0 {
		u.Violations = append(u.Violations,
			fmt.Sprintf("replay classified %d of %d visits differently from the crawl", rp.mismatches, len(f.log)))
	}

	keys := 50000
	if f.w.Tiny {
		keys = 4000
	}
	if err := btreeMicro(u.Seed, keys, dir, v); err != nil {
		return fmt.Errorf("btree micro: %w", err)
	}

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(map[string]any{
		"workload": u.Workload, "seed": u.Seed,
		"crawl_spans": fetchSpans.spans, "replay_spans": rp.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(traceDir, "trace-"+u.Workload+".json"), out, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
