// Package core wires the Focus system together: the synthetic web (standing
// in for the live Web), the topic taxonomy with the user's good-set marking,
// the relational store, the trained hierarchical classifier, and the
// focused crawler with its in-crawl distiller. This is the composition
// root that the paper's §2 architecture diagram describes; the public
// package at the module root re-exports it.
package core

import (
	"errors"
	"fmt"

	"focus/internal/classifier"
	"focus/internal/crawler"
	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/webgraph"
)

// Config assembles a full system.
type Config struct {
	// Web configures the simulated hypertext graph.
	Web webgraph.Config
	// GoodTopics are the topic names the user marks good (C*).
	GoodTopics []string
	// ExamplesPerTopic is the number of training documents per leaf topic
	// (default 25) — the D(c) example sets.
	ExamplesPerTopic int
	// Crawl tunes the crawler, including Workers (the host-partitioned
	// frontier has one shard per worker).
	Crawl crawler.Config
	// Frames sizes the buffer pool (default 4096 frames = at most 16 MiB).
	Frames int
	// DBPath, when set, backs the crawl relations with a durable file
	// (relstore.CreateFile for a fresh system, relstore.OpenFile for
	// ResumeSystem) instead of an in-memory disk, enabling
	// Crawl.CheckpointEvery and crash recovery. The classifier lives in
	// memory either way: it is a pure function of the web's vocabulary and
	// config, so a restart retrains it, beside the regeneration of the
	// web's pages and links. A failed start closes the file without a
	// commit.
	DBPath string
}

// System is a ready-to-run Focus instance.
type System struct {
	Web     *webgraph.Web
	Tree    *taxonomy.Tree
	DB      *relstore.DB
	Model   *classifier.Model
	Crawler *crawler.Crawler
}

// webFetcher adapts the synthetic web to the crawler's Fetcher interface,
// mapping transient failures onto crawler.ErrTransient and rate limits
// onto crawler.RateLimitedError (preserving the retry-after hint).
type webFetcher struct {
	w *webgraph.Web
}

// Fetch implements crawler.Fetcher. Both wrappings keep the webgraph
// error in the chain (%w, not %v), so outcome accounting can still
// classify by cause with errors.Is(err, webgraph.ErrTimeout) etc.
func (f webFetcher) Fetch(url string) (*crawler.Fetch, error) {
	res, err := f.w.Fetch(url)
	if err != nil {
		var rl *webgraph.RateLimitError
		if errors.As(err, &rl) {
			return nil, &crawler.RateLimitedError{RetryAfter: rl.RetryAfter, Err: err}
		}
		if webgraph.IsTransient(err) {
			return nil, fmt.Errorf("%w: %w", crawler.ErrTransient, err)
		}
		return nil, err
	}
	return &crawler.Fetch{
		URL:      res.URL,
		Server:   res.Server,
		ServerID: res.ServerID,
		Tokens:   res.Tokens,
		Outlinks: res.Outlinks,
	}, nil
}

// NewFetcher exposes the adapter for callers composing systems by hand.
func NewFetcher(w *webgraph.Web) crawler.Fetcher { return webFetcher{w} }

// NewSystem generates the web, trains the classifier on examples of every
// leaf topic, marks the good set, and builds a crawler. The web's pages and
// links are built on a second goroutine while this one opens the store,
// trains and builds the crawler (see assemble).
func NewSystem(cfg Config) (*System, error) {
	return assemble(cfg, nil, false)
}

// markGoodTopics marks cfg.GoodTopics on the web's taxonomy and applies the
// config defaults shared by the fresh and resume paths.
func markGoodTopics(web *webgraph.Web, cfg *Config) (*taxonomy.Tree, error) {
	tree := web.Cfg.Tree
	for _, name := range cfg.GoodTopics {
		node := tree.ByName(name)
		if node == nil {
			return nil, fmt.Errorf("core: unknown good topic %q", name)
		}
		if tree.Mark(node.ID) == taxonomy.MarkGood {
			continue
		}
		if err := tree.MarkGood(node.ID); err != nil {
			return nil, err
		}
	}
	if cfg.ExamplesPerTopic <= 0 {
		cfg.ExamplesPerTopic = 25
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 4096
	}
	return tree, nil
}

// trainModel trains the in-memory classifier on examples of every leaf
// topic. Training is a pure function of the web and config, so both the
// fresh and the resume path produce the same model.
func trainModel(web *webgraph.Web, tree *taxonomy.Tree, cfg Config) (*classifier.Model, error) {
	examples := classifier.Examples{}
	for _, leaf := range tree.Leaves() {
		examples[leaf.ID] = web.ExampleDocs(leaf.ID, cfg.ExamplesPerTopic)
	}
	return classifier.Train(nil, tree, examples, classifier.TrainConfig{})
}

// NewSystemOnWeb builds a system over an existing web (so experiments can
// run several crawlers against the same world). With Config.DBPath set, the
// crawl relations live in a fresh durable file, and checkpoints
// automatically carry the web's network-simulation state unless the caller
// set Crawl.CheckpointExtra itself. The web is the caller's, so nothing runs
// beside the training.
func NewSystemOnWeb(web *webgraph.Web, cfg Config) (*System, error) {
	return assemble(cfg, web, false)
}

// ResumeSystem reopens a durable crawl database (Config.DBPath) and rebuilds
// a System that continues the crawl from its last checkpoint: the web is
// regenerated from Config.Web and its network-simulation state imported from
// the checkpoint's Extra blob (so the deterministic web replays identically
// across the restart), the classifier is retrained, and the crawler is
// rebuilt over the recovered relations with crawler.Resume. The web's pages
// and links are built on a second goroutine while this one reopens the
// file, reads the checkpoint, retrains from the web's vocabulary and calls
// crawler.Resume; the Extra blob is imported after the two join. On an
// error the file is closed without a commit, so it still holds its last
// checkpoint. The recovered crawl is already seeded — do not SeedTopic
// again; just Run with the remaining budget.
func ResumeSystem(cfg Config) (*System, error) {
	if cfg.DBPath == "" {
		return nil, errors.New("core: ResumeSystem requires Config.DBPath")
	}
	return assemble(cfg, nil, true)
}

// assemble is the one construction path. Given no web, it generates one
// from cfg.Web: webgraph.NewWeb builds the vocabulary, and the pages, links
// and fetch state are built on a second goroutine while this one runs
// start, which reads the web only through ExampleDocs. Both join before
// assemble returns, on every path. Given a web, start runs alone. The
// checkpoint's Extra blob, which positions the web's fetch state, is
// imported after the join.
func assemble(cfg Config, web *webgraph.Web, resume bool) (*System, error) {
	generate := web == nil
	if generate {
		var err error
		if web, err = webgraph.NewWeb(cfg.Web); err != nil {
			return nil, err
		}
	}
	// The good set is marked before the build starts: both halves read
	// the taxonomy.
	tree, err := markGoodTopics(web, &cfg)
	if err != nil {
		return nil, err
	}
	join := func() {}
	if generate {
		built := make(chan struct{})
		go func() {
			defer close(built)
			web.Build()
		}()
		join = func() { <-built }
	}
	sys, extra, err := start(web, tree, cfg, resume)
	join()
	if err != nil {
		return nil, err
	}
	if len(extra) > 0 {
		if err := web.ImportFetchState(extra); err != nil {
			discard(sys.DB)
			return nil, err
		}
	}
	return sys, nil
}

// start opens the store, trains the classifier and builds the crawler: over
// a fresh store (durable at cfg.DBPath, else in memory) with crawler.New,
// or with resume over the file at cfg.DBPath reopened, with crawler.Resume,
// also returning the checkpoint's Extra blob. Of the web it reads only the
// vocabulary (ExampleDocs), so it may run while the pages are built. On an
// error the store is discarded.
func start(web *webgraph.Web, tree *taxonomy.Tree, cfg Config, resume bool) (sys *System, extra []byte, err error) {
	opts := relstore.Options{Frames: cfg.Frames}
	var db *relstore.DB
	switch {
	case resume:
		db, err = relstore.OpenFile(cfg.DBPath, opts)
	case cfg.DBPath != "":
		db, err = relstore.CreateFile(cfg.DBPath, opts)
	default:
		db = relstore.Open(opts)
	}
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			discard(db)
		}
	}()
	if resume {
		var st *crawler.CheckpointState
		if st, err = crawler.ReadCheckpoint(db); err != nil {
			return nil, nil, err
		}
		extra = st.Extra
	}
	if db.Durable() && cfg.Crawl.CheckpointExtra == nil {
		cfg.Crawl.CheckpointExtra = web.ExportFetchState
	}
	model, err := trainModel(web, tree, cfg)
	if err != nil {
		return nil, nil, err
	}
	newCrawler := crawler.New
	if resume {
		newCrawler = crawler.Resume
	}
	cr, err := newCrawler(db, model, webFetcher{web}, cfg.Crawl)
	if err != nil {
		return nil, nil, err
	}
	return &System{Web: web, Tree: tree, DB: db, Model: model, Crawler: cr}, extra, nil
}

// discard releases a store whose system failed to start. It closes the disk
// without the checkpoint DB.Close would take, so a durable file keeps its
// last committed checkpoint, as after a crash, rather than a half-resumed
// state.
func discard(db *relstore.DB) {
	db.Disk().Close()
}

// Close makes a durable system's stored state resumable — a final crawler
// checkpoint, so the CKPT row agrees with the relations — and closes the DB.
// In-memory systems just close. Skipping Close after a crash is the point:
// the file then recovers to the last checkpoint instead.
func (s *System) Close() error {
	if s.DB.Durable() {
		if err := s.Crawler.Checkpoint(); err != nil {
			s.DB.Close()
			return err
		}
	}
	return s.DB.Close()
}

// SeedTopic seeds the crawl with n popular pages of the named topic (the
// keyword-search-plus-distillation start set of §3.4).
func (s *System) SeedTopic(name string, n int) error {
	node := s.Tree.ByName(name)
	if node == nil {
		return fmt.Errorf("core: unknown topic %q", name)
	}
	return s.Crawler.Seed(s.Web.Seeds(node.ID, n))
}

// Run executes the crawl.
func (s *System) Run() (crawler.Result, error) { return s.Crawler.Run() }

// TrueRelevantFraction reports, against generator ground truth, the
// fraction of visited pages whose true topic is good or subsumed — an
// evaluation the paper could not run on the live Web but a simulator can.
func (s *System) TrueRelevantFraction() float64 {
	log := s.Crawler.HarvestLog()
	if len(log) == 0 {
		return 0
	}
	hits := 0
	for _, h := range log {
		p := s.Web.PageByURL(h.URL)
		if p != nil && s.Tree.IsGoodOrSubsumed(p.Topic) {
			hits++
		}
	}
	return float64(hits) / float64(len(log))
}
