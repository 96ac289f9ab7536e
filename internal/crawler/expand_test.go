package crawler

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"focus/internal/distiller"
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
// expansion — linkgraph.Apply, then the frontier pass — for a 44-link page whose targets are all new, into a crawl already
// holding a few thousand rows. What is left per new target is its policy
// key: its row is encoded from the shard's scratch tuple into the table's
// batch, its frontier-set entry is a fixed-width key in a block, the page's
// edge and target slices are recycled, and the per-edge lookups, URL
// re-hashing and row decodes allocate nothing. The same expansion allocated about 1 170 times
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
	t.Logf("expanding a 44-link page of new targets allocates %.0f times", avg)
	// Lands at 48: one per new target plus a few per page. It was 50 while
	// linkgraph.Apply grouped a batch by stripe (two slices a page), 103 while
	// each new target was its own insert from a fresh tuple and each page
	// fresh edge and URL slices, 152 while the frontier was a B+tree (a third
	// per target for its index key) and 197 while CRAWL also had an oid index.
	if avg > 160 {
		t.Fatalf("expanding a 44-link page allocates %.0f times, want at most 160", avg)
	}
}

// TestExpandLinksPoolFetches guards the buffer-pool fetches of the same
// 44-link expansion on the same warm crawl, for pages whose targets are all
// new, pages whose targets are already queued at a lower relevance (so every
// target's priority is raised), and pages whose targets are queued at the
// citer's relevance already (nothing to raise). No index page is fetched: a
// target is found in its shard's oid directory and ordered in its frontier
// set, and an edge is deduplicated and recorded in its stripe's out-edge
// directory, all in memory. The directory entry also carries the target's
// status and relevance, so the frontier pass reads no CRAWL page to decide.
// The fetch law is heap pages,
// one fetch per touch:
//   - the LINK stripe's tail page, once per page of links;
//   - each shard's CRAWL tail page, once per page that adds rows there (the
//     shard's new rows go in as one batch);
//   - a raised target's CRAWL page twice: the row read and its rewrite.
//
// On this two-shard crawl that is 1 + 2 = 3 for new targets, 1 + 2·44 = 89
// for raised ones and 1 for targets left alone, where the expansion landed.
// It was 45 and 177 while each target's status and relevance were read from
// its row (twice for a known one) and each new one was its own insert; 147
// and 363 with the frontier and bysrc B+trees, 173 and 394 with a bydst one
// too, and 438 and 570 with an oid one.
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
	raised := perPage(2000, 0, 0.9)    // pages 0..49's targets, queued at 0.5
	unraised := perPage(3000, 50, 0.5) // pages 50..99's, queued at 0.5 already
	t.Logf("pool fetches per page: %.1f for new targets, %.1f for raised ones, %.1f for ones left alone", fresh, raised, unraised)
	if fresh > 8 {
		t.Errorf("expanding a page of 44 new targets fetches %.1f pages, want at most 8", fresh)
	}
	if raised > 100 {
		t.Errorf("expanding a page of 44 raised targets fetches %.1f pages, want at most 100", raised)
	}
	if unraised != 1 {
		t.Errorf("expanding a page of 44 targets that need nothing fetches %.1f pages, want 1 (the LINK tail page)", unraised)
	}
	if c.FrontierSize() != rows {
		t.Fatal("a page of known targets added frontier rows")
	}
}

// TestDistillSnapshotFetchesNoPage: an epoch's world-stopped snapshot reads
// no page. The first cut seeds the arrangement from the oid directories,
// every later one swaps out the shards' change logs, and the LINK snapshot
// is a cut of row counts, so the barrier's cost does not grow with CRAWL's
// or LINK's pages. A later cut drains exactly the changes written since,
// unmoved by a later visit.
func TestDistillSnapshotFetchesNoPage(t *testing.T) {
	c, db := warmExpandCrawler(t)
	visit := func(rel float64) int64 {
		t.Helper()
		sh, rid, row, ok, _, err := c.checkout(0)
		if err != nil || !ok {
			t.Fatalf("checkout: ok %v, %v", ok, err)
		}
		if err := c.complete(sh, rid, row, &Fetch{URL: row[CURL].S, ServerID: SIDOf(row[CURL].S)}, rel, 0); err != nil {
			t.Fatal(err)
		}
		return row[COID].Int()
	}
	cut := func() []distiller.Change {
		t.Helper()
		before := db.Pool().Stats()
		snap, _, err := c.distillSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		after := db.Pool().Stats()
		if n := (after.Hits + after.Misses) - (before.Hits + before.Misses); n != 0 {
			t.Errorf("the distill snapshot fetched %d pages, want 0", n)
		}
		if snap.Rows() != c.links.Rows() {
			t.Fatalf("the LINK snapshot holds %d rows, the store %d", snap.Rows(), c.links.Rows())
		}
		return slices.Concat(c.changes...)
	}
	for i := range 20 {
		visit(float64(i) / 20)
	}
	if seeded := cut(); len(seeded) != 0 {
		t.Fatalf("the first cut left %d changes unmerged: it should have seeded the arrangement with them", len(seeded))
	}
	oid := visit(0.5)
	drained := cut()
	visit(1) // lands past the cut
	if want := []distiller.Change{{OID: oid, Rel: 0.5, Visited: true}}; !slices.Equal(drained, want) || !slices.Equal(slices.Concat(c.changes...), want) {
		t.Fatalf("the cut drained %+v, and holds %+v after a later visit, want %+v", drained, slices.Concat(c.changes...), want)
	}
}

// TestDistillSnapshotAllocsFlatInRows is the barrier's growth law: after a
// crawl's first cut, which seeds the arrangement from the oid directories,
// a cut allocates the same bytes at 4 400 rows as at 17 600 — it swaps the
// shards' change logs, whatever CRAWL holds. A crawl that never distills
// keeps no change log.
func TestDistillSnapshotAllocsFlatInRows(t *testing.T) {
	cutBytes := func(pages int) uint64 {
		c, _ := newTestCrawler(t, &stubFetcher{}, Config{Workers: 2, HubNeighborBoost: -1})
		expand := func(from, to int) {
			for n := from; n < to; n++ {
				src, f := expandPage(n, n)
				if err := c.expandLinks(src, f, 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		expand(0, pages)
		if err := c.distill(); err != nil {
			t.Fatal(err)
		}
		expand(pages, pages+5) // 220 rows, each a change
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := c.distillSnapshot()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(slices.Concat(c.changes...)); n != 220 {
			t.Fatalf("%d pages: the cut drained %d changes, want 220", pages, n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := cutBytes(100), cutBytes(400)
	t.Logf("a cut allocates %d B at 4 400 rows, %d B at 17 600", small, large)
	if large > small+512 {
		t.Errorf("a cut allocates %d B at 4 400 rows and %d B at 17 600: the barrier copies per row", small, large)
	}

	f := genSite(47, 300, 12, 5)
	c, _ := newTestCrawler(t, f, Config{Workers: 2, MaxFetches: 200})
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tables(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range c.shards {
		if sh.logging || sh.changes != nil {
			t.Fatalf("shard %d of a crawl that never distilled logs changes (%d)", sh.id, len(sh.changes))
		}
	}
}
