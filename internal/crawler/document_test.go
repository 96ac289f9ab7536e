package crawler

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"focus/internal/relstore"
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

// indexNames are the names of every index a crawl table or the classifier's
// statistics ever kept: CRAWL's oid and frontier trees, LINK's bysrc and
// bydst, the score tables' and the snapshot's oid, and STAT_c0's tid.
var indexNames = []string{"oid", "frontier", "bysrc", "bydst", "tid"}

// crawlCatalog lists the tables a crawl keeps in db: the two checkpoint
// tables, the merged snapshot, and the CRAWL and LINK partitions. It
// refuses a catalog that holds a score table: the crawl publishes its
// scores as arrays, and only Tables builds HUBS and AUTH.
func crawlCatalog(t *testing.T, db *relstore.DB) []*relstore.Table {
	t.Helper()
	for _, name := range []string{"HUBS", "AUTH"} {
		if db.Table(name) != nil {
			t.Fatalf("the crawl DB holds a score table %s", name)
		}
	}
	var out []*relstore.Table
	for _, name := range []string{ckptTable, ckptScoresTable, "CRAWL"} {
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
// during Run, and a resumed crawl has none either — nor any score table
// (crawlCatalog). A long-document crawl's
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
		for _, tb := range crawlCatalog(t, db) {
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
	// an index, with slack for the metadata pages and the checkpoint's
	// records, journal and manifest chain.
	pageBound := func(c *Crawler) int64 {
		var crawlRows int64
		for _, sh := range c.shards {
			crawlRows += sh.crawl.Rows()
		}
		return 64 + 4*(crawlRows*128+c.links.Rows()*64)/relstore.PageSize
	}
	cfg := Config{Workers: workers, MaxFetches: 120, CheckpointEvery: 50, DistillEvery: 40}
	c, err := New(db, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare("New", db)
	if got, tables := disk.NumPages()-base, int64(len(crawlCatalog(t, db))); got != tables {
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
