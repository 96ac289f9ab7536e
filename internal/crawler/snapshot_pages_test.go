package crawler

import (
	"testing"

	"focus/internal/distiller"
)

// TestRepeatedSnapshotsBoundPages pins the fix for the snapshot page leak:
// Crawl() and Doc() rebuild their merged view tables through DropTable on
// every call, and before the disk manager grew a free-page list each poll
// leaked the previous copy's heap and index pages — O(|CRAWL|) pages per
// query for a monitor that polls. After the first refresh the allocated
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
		doc, err := c.Doc()
		if err != nil {
			t.Fatal(err)
		}
		if doc.Rows() == 0 {
			t.Fatal("empty DOCUMENT snapshot")
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

// TestDistillSortRunsStayOutOfCrawlDB pins where distillation spills: with a
// sort workspace so small that every sort goes to runs, an epoch allocates
// them in the crawler's side store, and the crawl DB grows by its score
// tables only — the runs never raise that file's high-water mark, whenever
// the epoch happens to end.
func TestDistillSortRunsStayOutOfCrawlDB(t *testing.T) {
	site := map[string]*Fetch{}
	for i := 0; i < 8; i++ {
		u := pageURL(0, i)
		site[u] = page(u, "alpha", pageURL(0, (i+1)%8), pageURL(0, (i+3)%8))
	}
	c, db := newTestCrawler(t, &stubFetcher{pages: site}, Config{
		Workers: 1, MaxFetches: 16, Distill: distiller.Config{SortMem: 1},
	})
	if err := c.Seed([]string{pageURL(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	before := db.Disk().NumPages()
	if err := c.distillBarrier(); err != nil {
		t.Fatal(err)
	}
	grown, spilled := db.Disk().NumPages()-before, c.sortDB.Disk().NumPages()
	if spilled < 8 {
		t.Fatalf("the sorts spilled %d pages to the side store: too few for this test to mean anything", spilled)
	}
	if grown >= spilled {
		t.Fatalf("the epoch spilled %d pages of runs and grew the crawl DB by %d", spilled, grown)
	}
}

func pageURL(host, i int) string {
	return "http://h" + string(rune('a'+host)) + ".test/p" + string(rune('0'+i))
}
