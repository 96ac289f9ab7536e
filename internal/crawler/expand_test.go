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
// row's tuple and its keys; the per-edge lookups, re-probes, URL
// re-hashing and row decodes allocate nothing. The same expansion allocated
// about 1 170 times before it worked in sets.
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
	// Landed at 152: three per new target (its tuple, its frontier key, the
	// head hint's key) plus a dozen per page; 197 while CRAWL had an oid index.
	if avg > 260 {
		t.Fatalf("expanding a 44-link page allocates %.0f times, want at most 260", avg)
	}
}

// TestExpandLinksPoolFetches guards the buffer-pool fetches of the same
// 44-link expansion on the same warm crawl, once for pages whose targets are
// all new and once for pages whose targets are already queued at a lower
// relevance, so every target's priority is raised (the bump path). Finding a
// target is a read of its shard's in-memory oid directory, and recording an
// edge for the incoming-weight sweep an append to its LINK stripe's in-memory
// in-edge directory. Landed at 147 and 363. The oid B+tree cost two descents
// per edge plus an insert per new target (438 and 570 fetches a page); the
// (oid_dst, oid_src) B+tree the in-edge directory replaced cost a random
// insert per edge (173 and 394).
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
	if fresh > 160 {
		t.Errorf("expanding a page of 44 new targets fetches %.0f pages, want at most 160", fresh)
	}
	if known > 380 {
		t.Errorf("expanding a page of 44 known targets fetches %.0f pages, want at most 380", known)
	}
	if c.FrontierSize() != rows {
		t.Fatal("a page of known targets added frontier rows")
	}
}
