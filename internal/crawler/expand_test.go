package crawler

import (
	"fmt"
	"testing"

	"focus/internal/relstore"
)

// expandPage is a 44-link page: hub n of host n%16, linking to the targets
// of page targets — its own when targets == n, an earlier page's to reach
// targets that are already known.
func expandPage(n, targets int) (int64, *Fetch) {
	url := fmt.Sprintf("http://h%02d.test/hub%05d", n%16, n)
	f := &Fetch{URL: url, ServerID: SIDOf(url)}
	for j := 0; j < 44; j++ {
		f.Outlinks = append(f.Outlinks, fmt.Sprintf("http://h%02d.test/p%05d-%02d", (targets+j)%16, targets, j))
	}
	return OIDOf(url), f
}

// warmExpandCrawler is a two-worker crawl that has expanded pages 0..99 at
// relevance 0.5: 4 400 frontier rows, trees two levels deep.
func warmExpandCrawler(t *testing.T) (*Crawler, *relstore.DB) {
	c, db := newTestCrawler(t, &stubFetcher{}, Config{Workers: 2})
	for n := 0; n < 100; n++ {
		src, f := expandPage(n, n)
		if err := c.expandLinks(src, f, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	return c, db
}

// TestExpandLinksAllocs guards the allocation count of a visit's link
// expansion — linkgraph.Apply with the edgeWeight callback, then the frontier
// pass — for a 44-link page whose targets are all new, into a crawl already
// holding a few thousand rows. What is left per new target is the frontier
// row's tuple and its policy key; its frontier-set entry is a fixed-width key
// in a block, and the per-edge lookups, re-probes, URL re-hashing and row
// decodes allocate nothing. The same expansion allocated about 1 170 times
// before it worked in sets.
func TestExpandLinksAllocs(t *testing.T) {
	c, _ := warmExpandCrawler(t)
	const runs = 50
	pages := make([]*Fetch, 0, runs+1)
	srcs := make([]int64, 0, runs+1)
	for n := 0; n <= runs; n++ {
		src, f := expandPage(1000+n, 1000+n)
		srcs, pages = append(srcs, src), append(pages, f)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		if err := c.expandLinks(srcs[next], pages[next], 0.5); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if got := c.FrontierSize(); got != int64(44*(100+runs+1)) {
		t.Fatalf("frontier holds %d rows, every link of every page should have added one", got)
	}
	// Landed at 103: two per new target plus a dozen per page. It was 152
	// while the frontier was a B+tree (a third per target for its index key)
	// and 197 while CRAWL also had an oid index.
	if avg > 160 {
		t.Fatalf("expanding a 44-link page allocates %.0f times, want at most 160", avg)
	}
}

// TestExpandLinksPoolFetches guards the buffer-pool fetches of the same
// 44-link expansion on the same warm crawl, once for pages whose targets are
// all new and once for pages whose targets are already queued at a lower
// relevance, so every target's priority is raised (the bump path). No index
// page is fetched: a target is found in its shard's oid directory and
// ordered in its frontier set, and an edge is deduplicated and recorded in
// its stripe's out-edge and in-edge directories, all in memory. What is
// fetched is heap pages, one fetch per touch: the LINK stripe's tail page
// once per page of links, and per target its CRAWL row's heap page — once
// for a new target's insert; four times for a known one's (the edge-weight
// callback's status read, enqueueTarget's status read, the row read and its
// rewrite). That law gives 1 + 44 = 45 and 1 + 4·44 = 177, where the
// expansion landed. It was 147 and 363 with the frontier and bysrc B+trees,
// 173 and 394 with a bydst one too, and 438 and 570 with an oid one.
func TestExpandLinksPoolFetches(t *testing.T) {
	c, db := warmExpandCrawler(t)
	perPage := func(first, targets int, rel float64) float64 {
		const pages = 50
		before := db.Pool().Stats()
		for n := 0; n < pages; n++ {
			src, f := expandPage(first+n, targets+n)
			if err := c.expandLinks(src, f, rel); err != nil {
				t.Fatal(err)
			}
		}
		after := db.Pool().Stats()
		return float64((after.Hits+after.Misses)-(before.Hits+before.Misses)) / pages
	}
	fresh := perPage(1000, 1000, 0.5)
	rows := c.FrontierSize()
	known := perPage(2000, 0, 0.9)
	t.Logf("pool fetches per page: %.1f for new targets, %.1f for known ones", fresh, known)
	if fresh > 60 {
		t.Errorf("expanding a page of 44 new targets fetches %.0f pages, want at most 60", fresh)
	}
	if known > 200 {
		t.Errorf("expanding a page of 44 known targets fetches %.0f pages, want at most 200", known)
	}
	if c.FrontierSize() != rows {
		t.Fatal("a page of known targets added frontier rows")
	}
}
