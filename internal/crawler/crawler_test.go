package crawler

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"focus/internal/classifier"
	"focus/internal/distiller"
	"focus/internal/linkgraph"
	"focus/internal/relstore"
	"focus/internal/taxonomy"
)

// tinyModel trains a two-topic classifier (alpha vs beta) good on alpha,
// handing Train a fresh DB, which it returns for the crawl.
func tinyModel(t testing.TB) (*relstore.DB, *classifier.Model) {
	t.Helper()
	db := relstore.Open(relstore.Options{Frames: 512})
	return db, trainTiny(t, db)
}

// trainTiny is tinyModel's training, handing Train db.
func trainTiny(t testing.TB, db *relstore.DB) *classifier.Model {
	t.Helper()
	tree := taxonomy.New()
	alpha := tree.MustAdd(tree.Root, "alpha")
	beta := tree.MustAdd(tree.Root, "beta")
	ex := classifier.Examples{}
	for i := 0; i < 12; i++ {
		ex[alpha.ID] = append(ex[alpha.ID], strings.Fields(fmt.Sprintf(
			"alpha alpha alphaone alphatwo alphavar%d common filler", i%4)))
		ex[beta.ID] = append(ex[beta.ID], strings.Fields(fmt.Sprintf(
			"beta beta betaone betatwo betavar%d common filler", i%4)))
	}
	m, err := classifier.Train(db, tree, ex, classifier.TrainConfig{FeaturesPerNode: 60, MinDocFreq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.MarkGood(alpha.ID); err != nil {
		t.Fatal(err)
	}
	return m
}

// stubFetcher serves a hand-built site map; URLs absent from pages 404, and
// URLs in flaky fail transiently the given number of times first.
type stubFetcher struct {
	mu    sync.Mutex
	pages map[string]*Fetch
	flaky map[string]int
	order []string
}

func (s *stubFetcher) Fetch(url string) (*Fetch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.order = append(s.order, url)
	if n := s.flaky[url]; n > 0 {
		s.flaky[url] = n - 1
		return nil, fmt.Errorf("%w: stub timeout", ErrTransient)
	}
	p, ok := s.pages[url]
	if !ok {
		return nil, fmt.Errorf("stub: 404 %s", url)
	}
	return p, nil
}

func page(url string, topic string, outlinks ...string) *Fetch {
	toks := []string{"common", "filler"}
	for i := 0; i < 6; i++ {
		toks = append(toks, topic, topic+"one", topic+"two")
	}
	return &Fetch{
		URL: url, Server: HostOf(url), ServerID: SIDOf(url),
		Tokens: toks, Outlinks: outlinks,
	}
}

func newTestCrawler(t *testing.T, f Fetcher, cfg Config) (*Crawler, *relstore.DB) {
	t.Helper()
	db, m := tinyModel(t)
	c, err := New(db, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, db
}

// storedEdges returns the (src, dst) pairs links stores.
func storedEdges(t *testing.T, links *linkgraph.Store) map[[2]int64]bool {
	t.Helper()
	out := map[[2]int64]bool{}
	err := links.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		out[[2]int64{e.Src, e.Dst}] = true
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// crawlTable returns CRAWL merged across the shards, as Tables materializes
// it under the barrier.
func crawlTable(t *testing.T, c *Crawler) *relstore.Table {
	t.Helper()
	tb, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	return tb.Crawl
}

func TestCrawlVisitsAndClassifies(t *testing.T) {
	f := &stubFetcher{pages: map[string]*Fetch{
		"http://a.test/1": page("http://a.test/1", "alpha", "http://a.test/2"),
		"http://a.test/2": page("http://a.test/2", "alpha"),
	}}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 10})
	if err := c.Seed([]string{"http://a.test/1"}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 2 {
		t.Fatalf("visited = %d", res.Visited)
	}
	if !res.Stagnated {
		t.Fatal("exhausted site should report stagnation")
	}
	log := c.HarvestLog()
	if len(log) != 2 {
		t.Fatalf("harvest = %d", len(log))
	}
	for _, h := range log {
		if h.Relevance < 0.8 {
			t.Fatalf("alpha page relevance %.3f too low", h.Relevance)
		}
	}
}

func TestCheckoutPrefersRelevantParents(t *testing.T) {
	// Two seeds: an alpha page linking to x, a beta page linking to y.
	// After both seeds are visited, x (inherited high relevance) must be
	// fetched before y.
	f := &stubFetcher{pages: map[string]*Fetch{
		"http://a.test/seedA": page("http://a.test/seedA", "alpha", "http://c.test/x"),
		"http://b.test/seedB": page("http://b.test/seedB", "beta", "http://d.test/y"),
		"http://c.test/x":     page("http://c.test/x", "alpha"),
		"http://d.test/y":     page("http://d.test/y", "beta"),
	}}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 4})
	c.Seed([]string{"http://a.test/seedA", "http://b.test/seedB"})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	xi, yi := -1, -1
	for i, u := range f.order {
		switch u {
		case "http://c.test/x":
			xi = i
		case "http://d.test/y":
			yi = i
		}
	}
	if xi < 0 || yi < 0 {
		t.Fatalf("order = %v", f.order)
	}
	if xi > yi {
		t.Fatalf("low-relevance target fetched first: %v", f.order)
	}
}

func TestTransientRetryThenSuccess(t *testing.T) {
	f := &stubFetcher{
		pages: map[string]*Fetch{"http://a.test/1": page("http://a.test/1", "alpha")},
		flaky: map[string]int{"http://a.test/1": 2},
	}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 10})
	c.Seed([]string{"http://a.test/1"})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 || res.Failed != 2 || res.Fetches != 3 {
		t.Fatalf("res = %+v", res)
	}
}

func TestTransientRetryBudgetExhausted(t *testing.T) {
	f := &stubFetcher{
		pages: map[string]*Fetch{"http://a.test/1": page("http://a.test/1", "alpha")},
		flaky: map[string]int{"http://a.test/1": 99},
	}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 20})
	c.Seed([]string{"http://a.test/1"})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 0 || res.Dead != 1 || res.Fetches != 3 {
		t.Fatalf("res = %+v", res)
	}
}

func TestDeadLinksGoDead(t *testing.T) {
	f := &stubFetcher{pages: map[string]*Fetch{
		"http://a.test/1": page("http://a.test/1", "alpha", "http://a.test/missing"),
	}}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 10})
	c.Seed([]string{"http://a.test/1"})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 || res.Dead != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestHardFocusSkipsOffTopicExpansion(t *testing.T) {
	// seed(alpha) -> b(beta) -> x(alpha): hard focus must never reach x
	// because b is off-topic and its links are not expanded.
	pages := map[string]*Fetch{
		"http://a.test/seed": page("http://a.test/seed", "alpha", "http://b.test/b"),
		"http://b.test/b":    page("http://b.test/b", "beta", "http://c.test/x"),
		"http://c.test/x":    page("http://c.test/x", "alpha"),
	}
	fHard := &stubFetcher{pages: pages}
	c, _ := newTestCrawler(t, fHard, Config{Workers: 1, MaxFetches: 10, Mode: ModeHardFocus})
	c.Seed([]string{"http://a.test/seed"})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 2 {
		t.Fatalf("hard focus visited %d, want 2 (seed + b)", res.Visited)
	}
	if !res.Stagnated {
		t.Fatal("hard focus should stagnate here")
	}
	// Soft focus reaches x with the same budget.
	fSoft := &stubFetcher{pages: pages}
	c2, _ := newTestCrawler(t, fSoft, Config{Workers: 1, MaxFetches: 10, Mode: ModeSoftFocus})
	c2.Seed([]string{"http://a.test/seed"})
	res2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Visited != 3 {
		t.Fatalf("soft focus visited %d, want 3", res2.Visited)
	}
}

func TestLinkDedupAndWeightRefresh(t *testing.T) {
	// seed links twice to the same target; LINK must store one edge, with
	// the source's relevance as both weights, and Tables must read its
	// forward weight refreshed once the target is classified.
	f := &stubFetcher{pages: map[string]*Fetch{
		"http://a.test/1": page("http://a.test/1", "alpha", "http://b.test/2", "http://b.test/2"),
		"http://b.test/2": page("http://b.test/2", "beta"),
	}}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 10})
	c.Seed([]string{"http://a.test/1"})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Links().Rows(); got != 1 {
		t.Fatalf("LINK rows = %d, want 1", got)
	}
	weights := func(link distiller.LinkRel) (fwd, rev float64) {
		t.Helper()
		err := link.ScanEdges(func(e linkgraph.Edge) (bool, error) {
			fwd, rev = e.WgtFwd, e.WgtRev
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fwd, rev
	}
	fwd, rev := weights(c.Links())
	if rev < 0.7 {
		t.Fatalf("wgt_rev = %.3f; should reflect alpha source's relevance", rev)
	}
	if fwd != rev {
		t.Fatalf("LINK stores wgt_fwd = %.3f, want the ingest estimate, the source's relevance %.3f", fwd, rev)
	}
	tb, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if fwd, _ := weights(tb.Link); fwd > 0.3 {
		t.Fatalf("Tables reads wgt_fwd = %.3f; should reflect beta target's low relevance", fwd)
	}
}

// TestLinkDedupAcrossBatchesStress covers the case the single-crawl test above
// cannot: the same edge arriving in two workers' batches concurrently, each
// batch one page's out-links.
// Every distinct (src, dst) must be stored exactly once no matter how the
// batches interleave, and the crawler's link store must agree with a
// serial count.
func TestLinkDedupAcrossBatchesStress(t *testing.T) {
	c, _ := newTestCrawler(t, &stubFetcher{pages: map[string]*Fetch{}},
		Config{Workers: 4})
	store := c.Links()

	const workers = 4
	edge := func(src, dst int64) linkgraph.Edge {
		return linkgraph.Edge{
			Src: src, SidSrc: int32(src % 5),
			Dst: dst, SidDst: int32(dst % 5),
			WgtFwd: 0.5, WgtRev: 0.5,
		}
	}
	distinct := map[[2]int64]bool{}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		// Every worker submits the same overlapping pages: a source comes
		// back in several of them.
		var batches []*linkgraph.Batch
		for b := 0; b < 5; b++ {
			for k := 0; k < 11; k++ {
				batch, src := &linkgraph.Batch{}, int64(b*7+k)
				for i := k; i < 30; i += 11 {
					batch.Add(edge(src, int64(100+i)))
					distinct[[2]int64{src, int64(100 + i)}] = true
				}
				batches = append(batches, batch)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, b := range batches {
				if _, err := store.Apply(b, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := store.Rows(); got != int64(len(distinct)) {
		t.Fatalf("LINK rows = %d, want %d distinct edges", got, len(distinct))
	}
	stored := storedEdges(t, store)
	for key := range distinct {
		if !stored[key] {
			t.Fatalf("edge %d->%d lost", key[0], key[1])
		}
	}
}

func TestSetPolicyMidCrawl(t *testing.T) {
	f := &stubFetcher{pages: map[string]*Fetch{}}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 1})
	for i := 0; i < 20; i++ {
		url := fmt.Sprintf("http://s%d.test/p", i)
		f.pages[url] = page(url, "alpha")
	}
	urls := make([]string, 0, 20)
	for u := range f.pages {
		urls = append(urls, u)
	}
	if err := c.Seed(urls); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPolicy(FIFO()); err != nil {
		t.Fatal(err)
	}
	if c.FrontierSize() != 20 {
		t.Fatalf("frontier = %d", c.FrontierSize())
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// FIFO drains in seed order: the first fetched URL is the first seeded.
	if f.order[0] != urls[0] {
		t.Fatalf("fifo order broken: fetched %s first, seeded %s first", f.order[0], urls[0])
	}
}

func TestMonitorQueries(t *testing.T) {
	f := &stubFetcher{pages: map[string]*Fetch{
		"http://a.test/1": page("http://a.test/1", "alpha", "http://a.test/2", "http://b.test/3"),
		"http://a.test/2": page("http://a.test/2", "alpha", "http://b.test/3"),
		"http://b.test/3": page("http://b.test/3", "beta"),
	}}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 10})
	c.Seed([]string{"http://a.test/1"})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	census, err := c.CensusByClass()
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	names := map[string]int64{}
	for _, row := range census {
		total += row.Count
		names[row.Name] = row.Count
	}
	if total != 3 || names["alpha"] != 2 || names["beta"] != 1 {
		t.Fatalf("census = %v", census)
	}
	hb, err := c.HarvestByWindow(2)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, b := range hb {
		n += b.Count
	}
	if n != 3 {
		t.Fatalf("harvest buckets cover %d visits", n)
	}
	urls, servers, err := c.VisitedURLs(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 || !servers["a.test"] {
		t.Fatalf("visited relevant = %v servers %v", urls, servers)
	}
}

func TestDistillationDuringCrawl(t *testing.T) {
	// A little site with an obvious hub: seed links to hub, hub links to
	// three alpha authorities cross-server.
	pages := map[string]*Fetch{
		"http://a.test/seed": page("http://a.test/seed", "alpha", "http://h.test/hub"),
		"http://h.test/hub": page("http://h.test/hub", "alpha",
			"http://x.test/1", "http://y.test/2", "http://z.test/3"),
		"http://x.test/1": page("http://x.test/1", "alpha"),
		"http://y.test/2": page("http://y.test/2", "alpha"),
		"http://z.test/3": page("http://z.test/3", "alpha"),
	}
	f := &stubFetcher{pages: pages}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 20, DistillEvery: 2})
	c.Seed([]string{"http://a.test/seed"})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Distills == 0 {
		t.Fatal("distiller never ran")
	}
	hubs, err := c.TopHubURLs(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hubs) == 0 || hubs[0].URL != "http://h.test/hub" {
		t.Fatalf("top hubs = %v", hubs)
	}
	auths, err := c.TopAuthorityURLs(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(auths) == 0 {
		t.Fatal("no authorities")
	}
	if _, err := c.MissedNeighbors(0.5); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWorkers(t *testing.T) {
	// A wide site crawled with 8 workers: all pages visited exactly once.
	pages := map[string]*Fetch{}
	var links []string
	for i := 0; i < 60; i++ {
		u := fmt.Sprintf("http://s%02d.test/p%d", i%7, i)
		links = append(links, u)
	}
	for i, u := range links {
		var out []string
		for j := 1; j <= 4; j++ {
			out = append(out, links[(i+j*7)%len(links)])
		}
		pages[u] = page(u, "alpha", out...)
	}
	f := &stubFetcher{pages: pages}
	c, _ := newTestCrawler(t, f, Config{Workers: 8, MaxFetches: 200})
	c.Seed(links[:3])
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 60 {
		t.Fatalf("visited = %d, want 60", res.Visited)
	}
	seen := map[string]int{}
	for _, u := range f.order {
		seen[u]++
	}
	for u, n := range seen {
		if n != 1 {
			t.Fatalf("%s fetched %d times", u, n)
		}
	}
}
