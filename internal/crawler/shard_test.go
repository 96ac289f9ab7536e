package crawler

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"focus/internal/relstore"
)

// genSite builds a deterministic multi-host site from a fixed seed: npages
// pages spread over nhosts servers, each linking to a handful of others,
// with optional flaky (transiently failing) pages.
func genSite(seed int64, npages, nhosts, flakyEvery int) *stubFetcher {
	rng := rand.New(rand.NewSource(seed))
	urls := make([]string, npages)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://h%02d.test/p%04d", i%nhosts, i)
	}
	topics := []string{"alpha", "beta"}
	f := &stubFetcher{pages: map[string]*Fetch{}, flaky: map[string]int{}}
	for i, u := range urls {
		// A ring link keeps the site strongly connected from any seed; the
		// random links give the shards cross-host traffic.
		out := []string{urls[(i+1)%npages]}
		for j := 0; j < 3; j++ {
			out = append(out, urls[rng.Intn(npages)])
		}
		f.pages[u] = page(u, topics[rng.Intn(2)], out...)
		if flakyEvery > 0 && i%flakyEvery == flakyEvery-1 {
			f.flaky[u] = 1 + rng.Intn(2)
		}
	}
	return f
}

func seedURLs(f *stubFetcher, n int) []string {
	var urls []string
	for i := 0; len(urls) < n; i++ {
		u := fmt.Sprintf("http://h%02d.test/p%04d", i%8, i)
		if _, ok := f.pages[u]; ok {
			urls = append(urls, u)
		}
	}
	return urls
}

// TestShardedConcurrentCrawl drives 8 workers over a multi-host site and
// asserts the frontier invariants: no fetch is lost, no RID is checked out
// twice (beyond its transient-retry allowance), and the fetch budget is
// never overspent by more than Workers.
func TestShardedConcurrentCrawl(t *testing.T) {
	const (
		workers = 8
		budget  = 150
	)
	f := genSite(7, 400, 16, 10)
	c, _ := newTestCrawler(t, f, Config{Workers: workers, MaxFetches: budget})

	var hookMu sync.Mutex
	checkouts := map[string]int{}
	c.checkoutHook = func(sh *shard, row relstore.Tuple) {
		hookMu.Lock()
		checkouts[row[CURL].S]++
		hookMu.Unlock()
	}

	flakyBudget := map[string]int{}
	for u, n := range f.flaky {
		flakyBudget[u] = n
	}
	if err := c.Seed(seedURLs(f, 6)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Budget never overspent by more than Workers.
	if res.Fetches > budget+workers {
		t.Errorf("fetches = %d, budget %d overspent by more than %d workers",
			res.Fetches, budget, workers)
	}

	// No lost fetches: every checkout produced exactly one fetch attempt,
	// and the crawler's count matches the fetcher's ground truth.
	f.mu.Lock()
	attempts := len(f.order)
	perURL := map[string]int{}
	for _, u := range f.order {
		perURL[u]++
	}
	f.mu.Unlock()
	if int64(attempts) != res.Fetches {
		t.Errorf("fetcher saw %d attempts, crawler counted %d", attempts, res.Fetches)
	}
	var totalCheckouts int
	for _, n := range checkouts {
		totalCheckouts += n
	}
	if totalCheckouts != attempts {
		t.Errorf("%d checkouts but %d fetch attempts", totalCheckouts, attempts)
	}

	// No double-checkout: a URL may be checked out once, plus once per
	// transient failure it was configured to throw.
	for u, n := range checkouts {
		if allowed := 1 + flakyBudget[u]; n > allowed {
			t.Errorf("%s checked out %d times (allowed %d)", u, n, allowed)
		}
	}
	for u, n := range perURL {
		if allowed := 1 + flakyBudget[u]; n > allowed {
			t.Errorf("%s fetched %d times (allowed %d)", u, n, allowed)
		}
	}

	// Accounting closes: visited pages each correspond to one successful
	// fetch, and visited + failed = attempts.
	if res.Visited+res.Failed != res.Fetches {
		t.Errorf("visited %d + failed %d != fetches %d", res.Visited, res.Failed, res.Fetches)
	}
	if res.Visited != int64(len(c.HarvestLog())) {
		t.Errorf("visited %d but harvest log has %d points", res.Visited, len(c.HarvestLog()))
	}

	// Harvest log sequence numbers are strictly increasing (visit order).
	log := c.HarvestLog()
	for i := 1; i < len(log); i++ {
		if log[i].Seq <= log[i-1].Seq {
			t.Fatalf("harvest out of order at %d: seq %d then %d", i, log[i-1].Seq, log[i].Seq)
		}
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDirectoryCatchesDrift: the directory checker passes on a crawl
// holding a frontier row and a visited one, and fails once an entry is
// missing, points at another row, has no row behind it, or mirrors a stale
// status or relevance — and once the visit log misses a visit, logs a row
// that is not visited, disagrees with its row, or with the visited counter.
func TestCheckDirectoryCatchesDrift(t *testing.T) {
	c, _ := newTestCrawler(t, &stubFetcher{}, Config{Workers: 2})
	a, b := "http://h00.test/a", "http://h00.test/b"
	if err := c.Seed([]string{a}); err != nil {
		t.Fatal(err)
	}
	plantVisited(t, c, b, 0.25)
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	sh := c.shardFor(SIDOf(a))
	oa, ob := OIDOf(a), OIDOf(b)
	da, db := sh.rids[oa], sh.rids[ob]
	swapped := func(d, at dirEntry) dirEntry { d.page, d.slot = at.page, at.slot; return d }
	for name, drift := range map[string]func(){
		"missing": func() { delete(sh.rids, oa) },
		"swapped": func() { sh.rids[oa], sh.rids[ob] = swapped(da, db), swapped(db, da) },
		"phantom": func() { sh.rids[OIDOf("http://h00.test/c")] = da },
		"stale status": func() {
			d := db
			d.status = int16(StatusFrontier) // visited, still marked frontier
			sh.rids[ob] = d
		},
		"stale relevance": func() {
			d := da
			d.rel = math.Nextafter(d.rel, 0) // off in the last bit
			sh.rids[oa] = d
		},
	} {
		drift()
		if err := c.CheckDirectory(); err == nil {
			t.Errorf("%s entry: CheckDirectory passed", name)
		}
		sh.rids = map[int64]dirEntry{oa: da, ob: db}
		if err := c.CheckDirectory(); err != nil {
			t.Fatalf("after undoing the %s entry: %v", name, err)
		}
	}

	// The visit log: b's one entry, at Seq 1 = the visited counter.
	logged := slices.Clone(sh.visits)
	for name, drift := range map[string]func(){
		"unlogged visit":  func() { sh.visits = nil },
		"phantom visit":   func() { sh.visits = append(sh.visits, HarvestPoint{Seq: 2, OID: oa, URL: a}) },
		"stale relevance": func() { sh.visits[0].Relevance = math.Nextafter(0.25, 0) },
		"stale class":     func() { sh.visits[0].Kcid++ },
		"wrong seq":       func() { sh.visits[0].Seq = 2 },
		"counter ahead":   func() { c.visited.Add(1) },
	} {
		drift()
		if err := c.CheckDirectory(); err == nil {
			t.Errorf("%s: CheckDirectory passed", name)
		}
		sh.visits = slices.Clone(logged)
		c.visited.Store(1)
		if err := c.CheckDirectory(); err != nil {
			t.Fatalf("after undoing the %s: %v", name, err)
		}
	}
}

// TestDirEntrySize: an oid-directory entry is a RID plus the status and
// relevance it mirrors, packed into 16 bytes (DESIGN.md "Memory growth law").
func TestDirEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(dirEntry{}); n != 16 {
		t.Fatalf("dirEntry is %d bytes, want 16", n)
	}
}

// gatedFetcher holds its at-th fetch until open closes, so a test can be
// sure the crawl is still running when something else has happened.
type gatedFetcher struct {
	inner Fetcher
	n     atomic.Int64
	at    int64
	open  chan struct{}
}

func (g *gatedFetcher) Fetch(url string) (*Fetch, error) {
	if g.n.Add(1) == g.at {
		select {
		case <-g.open:
		case <-time.After(10 * time.Second):
		}
	}
	return g.inner.Fetch(url)
}

// TestURLOfBesideCrawlStress: URLOf probes the shard directories one shard
// lock at a time instead of stopping the world. Beside an eight-worker crawl
// it must resolve every oid the harvest log has shown so far to that page's
// URL, and report an oid with no row as unknown. The crawl's 100th fetch
// waits until the prober has resolved a non-empty log once, so at least one
// pass overlaps the crawl.
func TestURLOfBesideCrawlStress(t *testing.T) {
	f := genSite(19, 400, 16, 0)
	gate := &gatedFetcher{inner: f, at: 100, open: make(chan struct{})}
	c, _ := newTestCrawler(t, gate, Config{Workers: 8, MaxFetches: 300, DistillEvery: 50})
	if err := c.Seed(seedURLs(f, 6)); err != nil {
		t.Fatal(err)
	}
	var (
		resolved int
		queryErr error
		opened   sync.Once
	)
	check := func(h HarvestPoint) bool {
		if url, ok := c.URLOf(h.OID); !ok || url != h.URL {
			queryErr = fmt.Errorf("URLOf(%d) = %q, %v; harvested as %q", h.OID, url, ok, h.URL)
			return false
		}
		resolved++
		return true
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer opened.Do(func() { close(gate.open) })
		for {
			select {
			case <-done:
				return
			default:
			}
			log := c.HarvestLog()
			for _, h := range log {
				if !check(h) {
					return
				}
			}
			if url, ok := c.URLOf(OIDOf("http://nowhere.test/")); ok {
				queryErr = fmt.Errorf("URLOf of an unknown oid = %q", url)
				return
			}
			if len(log) > 0 {
				opened.Do(func() { close(gate.open) })
			}
		}
	}()
	_, err := c.Run()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if queryErr != nil {
		t.Fatal(queryErr)
	}
	if resolved == 0 {
		t.Fatal("URLOf resolved nothing while the crawl ran")
	}
	for _, h := range c.HarvestLog() {
		if !check(h) {
			t.Fatal(queryErr)
		}
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

// TestShardCheckoutOrderProperty verifies, for a fixed site seed, that
// every checkout respects the (numtries ASC, relevance DESC, serverload
// ASC) order within its shard — by recomputing the minimum over a direct
// table scan, independent of the frontier set — and that every URL is
// checked out of the shard its host hashes to.
func TestShardCheckoutOrderProperty(t *testing.T) {
	f := genSite(11, 240, 12, 0)
	c, _ := newTestCrawler(t, f, Config{Workers: 4, MaxFetches: 200})

	c.checkoutHook = func(sh *shard, row relstore.Tuple) {
		url := row[CURL].S
		if home := c.shardFor(SIDOf(url)); home != sh {
			t.Errorf("%s checked out of shard %d, host hashes to shard %d",
				url, sh.id, home.id)
		}
		// The checked-out row must be minimal under the policy key among
		// this shard's frontier rows (sh.mu is held by the caller).
		key := c.policy.Key(row)
		var minKey []byte
		err := sh.crawl.Scan(func(_ relstore.RID, rt relstore.Tuple) (bool, error) {
			if int32(rt[CStatus].Int()) != StatusFrontier {
				return false, nil
			}
			if k := c.policy.Key(rt); minKey == nil || bytes.Compare(k, minKey) < 0 {
				minKey = k
			}
			return false, nil
		})
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		if !bytes.Equal(key, minKey) {
			t.Errorf("shard %d checked out %s with key %x, but frontier minimum is %x",
				sh.id, url, key, minKey)
		}
	}

	if err := c.Seed(seedURLs(f, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}

	// Host -> shard assignment is stable: every row lives in the shard its
	// host hashes to, across the whole CRAWL relation.
	for _, sh := range c.shards {
		err := sh.crawl.Scan(func(_ relstore.RID, row relstore.Tuple) (bool, error) {
			if home := c.shardFor(SIDOf(row[CURL].S)); home != sh {
				t.Errorf("row %s stored in shard %d, host hashes to shard %d",
					row[CURL].S, sh.id, home.id)
			}
			return false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

// TestShardPartitionDisjoint checks that the same URL seeded or discovered
// repeatedly lands in exactly one shard's partition, and that FrontierSize
// aggregates across shards.
func TestShardPartitionDisjoint(t *testing.T) {
	f := &stubFetcher{pages: map[string]*Fetch{}}
	c, _ := newTestCrawler(t, f, Config{Workers: 4, MaxFetches: 1})
	var urls []string
	for i := 0; i < 40; i++ {
		urls = append(urls, fmt.Sprintf("http://h%02d.test/p%d", i%10, i))
	}
	// Seed twice: duplicates must not create rows.
	if err := c.Seed(urls); err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(urls); err != nil {
		t.Fatal(err)
	}
	if got := c.FrontierSize(); got != 40 {
		t.Fatalf("frontier = %d, want 40", got)
	}
	counts := map[int64]int{}
	for _, sh := range c.shards {
		err := sh.crawl.Scan(func(_ relstore.RID, row relstore.Tuple) (bool, error) {
			counts[row[COID].Int()]++
			return false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(counts) != 40 {
		t.Fatalf("distinct rows = %d, want 40", len(counts))
	}
	for oid, n := range counts {
		if n != 1 {
			t.Fatalf("oid %d appears in %d shard partitions", oid, n)
		}
	}
}

// TestShardCountIndependence runs the same crawl at several shard counts
// and checks the global invariants hold regardless of partitioning.
func TestShardCountIndependence(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		f := genSite(13, 150, 9, 0)
		db, m := tinyModel(t)
		c, err := newPartitioned(db, m, f, Config{Workers: 4, MaxFetches: 500}, shards, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.NumShards(); got != shards {
			t.Fatalf("NumShards = %d, want %d", got, shards)
		}
		if err := c.Seed(seedURLs(f, 5)); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		// The site is fully reachable and the budget ample: every page is
		// visited exactly once no matter how the frontier is partitioned.
		f.mu.Lock()
		seen := map[string]int{}
		for _, u := range f.order {
			seen[u]++
		}
		f.mu.Unlock()
		for u, n := range seen {
			if n != 1 {
				t.Errorf("shards=%d: %s fetched %d times", shards, u, n)
			}
		}
		if res.Visited != int64(len(f.pages)) {
			t.Errorf("shards=%d: visited %d of %d pages", shards, res.Visited, len(f.pages))
		}
	}
}
