package crawler

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"focus/internal/classifier"
	"focus/internal/relstore"
	"focus/internal/textproc"
)

// longDocSite is genSite with long documents: every page carries terms
// distinct terms on top of its topic words, the shape that made the crawl's
// old DOCUMENT write its largest per-visit stage.
func longDocSite(seed int64, npages, nhosts, terms int) *stubFetcher {
	f := genSite(seed, npages, nhosts, 0)
	for i, u := range slices.Sorted(maps.Keys(f.pages)) {
		p := *f.pages[u]
		p.Tokens = slices.Clone(p.Tokens)
		for j := 0; j < terms; j++ {
			p.Tokens = append(p.Tokens, fmt.Sprintf("w%d", (i*7+j)%(4*terms)))
		}
		f.pages[u] = &p
	}
	return f
}

// documentTables lists the DOCUMENT tables in db's catalog: the merged
// snapshot and the stripes, probed one past the highest stripe asked for.
func documentTables(db *relstore.DB, stripes int) []string {
	names := []string{"DOCUMENT"}
	for i := 0; i <= stripes; i++ {
		names = append(names, fmt.Sprintf("DOCUMENT#%d", i))
	}
	return slices.DeleteFunc(names, func(name string) bool { return db.Table(name) == nil })
}

// indexNames are the names of every index a crawl table or the classifier's
// statistics ever kept: CRAWL's oid and frontier trees, LINK's bysrc and
// bydst, the score tables' and the snapshot's oid, and STAT_c0's tid.
var indexNames = []string{"oid", "frontier", "bysrc", "bydst", "tid"}

// crawlCatalog lists the tables a crawl keeps in db: the checkpoint row, the
// merged snapshot, the four score tables, and the CRAWL and LINK partitions.
func crawlCatalog(db *relstore.DB) []*relstore.Table {
	var out []*relstore.Table
	for _, name := range append([]string{ckptTable, "CRAWL"}, scoreTables[:]...) {
		if tb := db.Table(name); tb != nil {
			out = append(out, tb)
		}
	}
	for _, format := range []string{"CRAWL#%d", "LINK#%d"} {
		for i := 0; db.Table(fmt.Sprintf(format, i)) != nil; i++ {
			out = append(out, db.Table(fmt.Sprintf(format, i)))
		}
	}
	return out
}

// TestCrawlKeepsNoDocumentRelation guards against the per-visit DOCUMENT
// write returning: a crawl creates no DOCUMENT table at New, writes none
// during Run, and a resumed crawl has none either. A long-document crawl's
// file stays within a page bound sized from its CRAWL and LINK rows alone;
// the old write put each visit's few hundred term rows on top. Nor does the
// crawl DB hold anything only Figure 8 reads: the model is trained into it,
// yet no table has an index and the catalog has no TAXONOMY or STAT_c0
// relation, and right after New the file is one heap page per table — no
// BLOB tree either.
func TestCrawlKeepsNoDocumentRelation(t *testing.T) {
	const workers = 2
	f := longDocSite(17, 240, 8, 400)
	disk := relstore.NewMemDisk()
	opts := relstore.Options{Frames: 2048}
	db, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := disk.NumPages()
	m := trainTiny(t, db)
	bare := func(when string, db *relstore.DB) {
		t.Helper()
		if db.Table("DOCUMENT#0") != nil {
			t.Fatalf("DOCUMENT#0 exists after %s", when)
		}
		for _, tb := range crawlCatalog(db) {
			for _, ix := range indexNames {
				if tb.Index(ix) != nil {
					t.Fatalf("%s keeps an index %s after %s", tb.Name, ix, when)
				}
			}
		}
		if db.Table("TAXONOMY") != nil {
			t.Fatalf("TAXONOMY exists after %s", when)
		}
		for _, c0 := range m.Tree.Internal() {
			if db.Table("STAT_"+c0.Name) != nil {
				t.Fatalf("STAT_%s exists after %s", c0.Name, when)
			}
		}
	}
	// pageBound sizes the file from what the crawl must keep: CRAWL rows
	// (a URL and eight numbers) and LINK rows (six numbers), each heap plus
	// an index, with slack for the score tables, the metadata pages and the
	// checkpoint's journal and manifest chain.
	pageBound := func(c *Crawler) int64 {
		var crawlRows int64
		for _, sh := range c.shards {
			crawlRows += sh.crawl.Rows()
		}
		return 64 + 4*(crawlRows*128+c.links.Rows()*64)/relstore.PageSize
	}
	cfg := Config{Workers: workers, MaxFetches: 120, CheckpointEvery: 50}
	c, err := New(db, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare("New", db)
	if got, tables := disk.NumPages()-base, int64(len(crawlCatalog(db))); got != tables {
		t.Fatalf("training and New allocated %d pages for %d bare tables", got, tables)
	}
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited < 100 {
		t.Fatalf("visited %d pages: too few for the page bound to mean anything", res.Visited)
	}
	bare("Run", db)
	if n, bound := disk.NumPages(), pageBound(c); n > bound {
		t.Fatalf("crawl of %d long documents holds %d pages, bound %d from its CRAWL and LINK rows", res.Visited, n, bound)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	db2, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxFetches = 200
	c2, err := Resume(db2, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare("Resume", db2)
	if _, err := c2.Run(); err != nil {
		t.Fatal(err)
	}
	bare("the resumed Run", db2)
	if n, bound := disk.NumPages(), pageBound(c2); n > bound {
		t.Fatalf("resumed crawl holds %d pages, bound %d from its CRAWL and LINK rows", n, bound)
	}
}

// TestResumeDropsParentDocumentTables reopens a durable crawl written when
// the crawl still kept a DOCUMENT relation — DOCUMENT#0..n-1 stripes of
// InsertDoc rows plus a leftover merged DOCUMENT snapshot — and an oid
// B+tree on each of the four score tables, and requires Resume to drop
// every one of them, their pages reaching the free list, and to leave a
// crawl that runs on without growing the file while those pages last. A
// crash between the drop and the next checkpoint brings them back (the drop
// was never checkpointed); resuming again drops them again, and once a
// checkpoint commits they stay gone.
func TestResumeDropsParentDocumentTables(t *testing.T) {
	const workers = 2
	f := longDocSite(19, 240, 8, 300)
	_, m := tinyModel(t)
	disk := relstore.NewMemDisk()
	opts := relstore.Options{Frames: 4096}
	db, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: workers, MaxFetches: 60}
	c, err := New(db, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// The parent's shape: one DOCUMENT stripe per LINK stripe, each page's
	// term rows in its oid's stripe, and the merged snapshot Doc() left.
	var stripes []*relstore.Table
	for i := 0; i < workers; i++ {
		tab, err := db.CreateTable(fmt.Sprintf("DOCUMENT#%d", i), classifier.DocSchema())
		if err != nil {
			t.Fatal(err)
		}
		stripes = append(stripes, tab)
	}
	merged, err := db.CreateTable("DOCUMENT", classifier.DocSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range c.HarvestLog() {
		vec := textproc.VectorOfTokens(f.pages[h.URL].Tokens)
		if err := classifier.InsertDoc(stripes[uint64(h.OID)%workers], h.OID, vec); err != nil {
			t.Fatal(err)
		}
		if err := classifier.InsertDoc(merged, h.OID, vec); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range scoreTables {
		if _, err := db.Table(name).AddIndex("oid", func(tp relstore.Tuple) []byte { return relstore.EncodeKey(tp[0]) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash: the pool is dropped without Close.

	// scoreIndexes lists the score tables that carry an oid tree.
	scoreIndexes := func(db *relstore.DB) []string {
		return slices.DeleteFunc(slices.Clone(scoreTables[:]), func(name string) bool { return db.Table(name).Index("oid") == nil })
	}

	resume := func(budget int64) *Crawler {
		t.Helper()
		db, err := relstore.OpenDurable(disk, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := documentTables(db, workers); len(got) != workers+1 {
			t.Fatalf("reopened file holds DOCUMENT tables %v, want the parent's %d", got, workers+1)
		}
		if got := scoreIndexes(db); len(got) != len(scoreTables) {
			t.Fatalf("reopened file has oid trees on %v, want the parent's on all of %v", got, scoreTables)
		}
		free := disk.FreePages()
		cfg.MaxFetches = budget
		c, err := Resume(db, m, f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := documentTables(db, workers); len(got) != 0 {
			t.Fatalf("Resume left DOCUMENT tables %v", got)
		}
		if got := scoreIndexes(db); len(got) != 0 {
			t.Fatalf("Resume left oid trees on %v", got)
		}
		if disk.FreePages() <= free {
			t.Fatalf("free list %d pages after dropping DOCUMENT and the score trees, %d before", disk.FreePages(), free)
		}
		if err := c.CheckDirectory(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	runFlat := func(c *Crawler) {
		t.Helper()
		pages, visited := disk.NumPages(), c.visited.Load()
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Visited <= visited {
			t.Fatalf("the resumed crawl visited nothing (%d before, %d after)", visited, res.Visited)
		}
		if n := disk.NumPages(); n != pages {
			t.Fatalf("file grew from %d to %d pages with DOCUMENT's freed pages to reuse", pages, n)
		}
		if err := c.CheckDirectory(); err != nil {
			t.Fatal(err)
		}
	}

	runFlat(resume(90))
	// Crash again, before any checkpoint has recorded the drop.

	c3 := resume(120)
	runFlat(c3)
	if err := c3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash once more, after the checkpoint that records the drop.

	db4, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := documentTables(db4, workers); len(got) != 0 {
		t.Fatalf("checkpointed file holds DOCUMENT tables %v", got)
	}
	if got := scoreIndexes(db4); len(got) != 0 {
		t.Fatalf("checkpointed file has oid trees on %v", got)
	}
	cfg.MaxFetches = 150
	c4, err := Resume(db4, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c4.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	if _, err := c4.Run(); err != nil {
		t.Fatal(err)
	}
}
