package crawler

import "testing"

// TestRepeatedSnapshotsBoundPages pins the fix for the snapshot page leak:
// Crawl() rebuilds its merged view table through DropTable on every call,
// and before the disk manager grew a free-page list each poll leaked the
// previous copy's heap and index pages — O(|CRAWL|) pages per query for a
// monitor that polls. Crawl() is the only merged snapshot left to poll (the
// crawl keeps no DOCUMENT relation). After the first refresh the allocated
// page count must stay exactly flat.
func TestRepeatedSnapshotsBoundPages(t *testing.T) {
	site := map[string]*Fetch{}
	var seeds []string
	for h := 0; h < 4; h++ {
		for i := 0; i < 8; i++ {
			u := pageURL(h, i)
			var out []string
			if i+1 < 8 {
				out = append(out, pageURL(h, i+1))
			}
			site[u] = page(u, "alpha", out...)
		}
		seeds = append(seeds, pageURL(h, 0))
	}
	f := &stubFetcher{pages: site}
	c, db := newTestCrawler(t, f, Config{Workers: 2, MaxFetches: 64})
	if err := c.Seed(seeds); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}

	snapshot := func() {
		snap, err := c.Crawl()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Rows() == 0 {
			t.Fatal("empty CRAWL snapshot")
		}
	}
	// The first call replaces no prior snapshot and may allocate fresh
	// pages; every later refresh must recycle the previous copy's.
	snapshot()
	after1 := db.Disk().NumPages()
	for i := 0; i < 10; i++ {
		snapshot()
		if n := db.Disk().NumPages(); n != after1 {
			t.Fatalf("poll %d: NumPages = %d, want %d (snapshot refresh must not grow the disk)", i, n, after1)
		}
	}
}

// TestDistillEpochGrowsCrawlDBByScoreTablesOnly pins what an epoch leaves in
// the crawl DB: the distiller's plan lives in memory, so an epoch may grow
// the file only by the score tables' pages. Epochs alternate between two
// buffer pairs, so the first two epochs each fill a pair and the third
// grows it by nothing — truncating HUBS and AUTH frees what their reload
// takes.
func TestDistillEpochGrowsCrawlDBByScoreTablesOnly(t *testing.T) {
	site := map[string]*Fetch{}
	for h := 0; h < 4; h++ {
		for i := 0; i < 8; i++ {
			u := pageURL(h, i)
			site[u] = page(u, "alpha", pageURL(h, (i+1)%8), pageURL((h+1)%4, i), pageURL((h+2)%4, (i+3)%8))
		}
	}
	// No boost: it could move a frontier page, which is not what is measured.
	c, db := newTestCrawler(t, &stubFetcher{pages: site}, Config{
		Workers: 1, MaxFetches: 32, HubNeighborBoost: -1,
	})
	if err := c.Seed([]string{pageURL(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	pages := db.Disk().NumPages()
	for epoch := 1; epoch <= 3; epoch++ {
		if err := c.distill(); err != nil {
			t.Fatal(err)
		}
		if c.hubs.Rows() == 0 || c.auth.Rows() == 0 {
			t.Fatalf("epoch %d scored %d hubs and %d authorities: too few for this test to mean anything",
				epoch, c.hubs.Rows(), c.auth.Rows())
		}
		n := db.Disk().NumPages()
		// Each score table is a heap chain and one index tree, a page each
		// at this size.
		limit := int64(4)
		if epoch == 3 {
			limit = 0
		}
		if grown := n - pages; grown > limit {
			t.Fatalf("epoch %d grew the crawl DB by %d pages, want at most %d", epoch, grown, limit)
		}
		pages = n
	}
}

func pageURL(host, i int) string {
	return "http://h" + string(rune('a'+host)) + ".test/p" + string(rune('0'+i))
}
