package crawler

import "testing"

// TestRepeatedSnapshotsBoundPages pins the fix for the snapshot page leak:
// Tables() rebuilds its merged CRAWL table and its score tables through
// DropTable on every call, and before the disk manager grew a free-page list
// each call leaked the previous copies' heap and index pages — O(|CRAWL|)
// pages per call for a caller that polls. After the first refresh the
// allocated page count must stay exactly flat.
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
		if crawlTable(t, c).Rows() == 0 {
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
// the crawl DB: the distiller's plan lives in memory and an epoch publishes
// its scores as arrays, so the score tables — the only pages an epoch ever
// wrote — are gone, and no epoch grows the file at all.
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
		r := c.pub.Load()
		if len(r.hubs) == 0 || len(r.auth) == 0 {
			t.Fatalf("epoch %d scored %d hubs and %d authorities: too few for this test to mean anything",
				epoch, len(r.hubs), len(r.auth))
		}
		if n := db.Disk().NumPages(); n != pages {
			t.Fatalf("epoch %d grew the crawl DB from %d to %d pages", epoch, pages, n)
		}
	}
}

func pageURL(host, i int) string {
	return "http://h" + string(rune('a'+host)) + ".test/p" + string(rune('0'+i))
}

// TestDistillEpochReadsLinkTail: an epoch extends the kept arrangement by
// LINK's tail past the previous epoch's snapshot and reads nothing else of
// LINK. The law: its pool fetches are at most the pages the tail's rows
// fill, ceil(rows / 92) a stripe (a 40-byte record and its 4-byte slot, 92
// to a 4 KiB page after the 8-byte header), plus one page a stripe, where
// the tail starts inside the previous epoch's last page. The first epoch
// reads all of LINK. The boost is off, so no CRAWL page is read.
func TestDistillEpochReadsLinkTail(t *testing.T) {
	c, db := newTestCrawler(t, &stubFetcher{}, Config{Workers: 2, HubNeighborBoost: -1})
	next := 0
	ingest := func(pages int) (rows [2]int64) {
		for ; pages > 0; pages-- {
			src, f := expandPage(next, next)
			next++
			before := c.links.Rows()
			if err := c.expandLinks(src, f, 0.5); err != nil {
				t.Fatal(err)
			}
			rows[uint64(src)%2] += c.links.Rows() - before
		}
		return rows
	}
	epochFetches := func() int64 {
		before := db.Pool().Stats()
		if err := c.distill(); err != nil {
			t.Fatal(err)
		}
		after := db.Pool().Stats()
		return (after.Hits + after.Misses) - (before.Hits + before.Misses)
	}
	ingest(100)
	first := epochFetches()
	if first < c.links.Rows()/92 {
		t.Fatalf("the first epoch fetched %d pages for %d LINK rows: it should read them all", first, c.links.Rows())
	}
	for epoch := 2; epoch <= 5; epoch++ {
		rows := ingest(7 + epoch)
		bound := int64(len(rows))
		for _, n := range rows {
			bound += (n + 91) / 92
		}
		if got := epochFetches(); got > bound {
			t.Errorf("epoch %d fetched %d pages for a tail of %v rows a stripe: the law allows %d", epoch, got, rows, bound)
		} else {
			t.Logf("epoch %d: %d fetches for a tail of %v rows a stripe (law %d; the first epoch %d)", epoch, got, rows, bound, first)
		}
	}
}
