package crawler

import (
	"fmt"
	"testing"

	"focus/internal/relstore"
	"focus/internal/textproc"
)

// TestClassifyBatchPipelineStress hammers the visit path under -race:
// eight workers each classify, persist and complete their own visits while
// the workers whose visits trigger distillation epochs compute and publish
// them beside the rest. The
// test and its serial-stage case keep the names they had when
// classification ran as a batched stage behind the workers; the case now
// runs the one inline path. Invariants:
//   - no lost visits: every successfully fetched page is visited exactly
//     once, and visited == harvest length == visited CRAWL rows;
//   - harvest/visit-seq consistency: Seq is exactly 1..N in log order with
//     no duplicate oids;
//   - posterior equivalence: every harvest point's relevance and class
//     equal a per-page Classify of the same tokens;
//   - clean drain: when Run returns, distillation's published epoch equals
//     its snapshotted epoch.
func TestClassifyBatchPipelineStress(t *testing.T) {
	t.Run("serial-stage", inlineClassifyStress)
}

func inlineClassifyStress(t *testing.T) {
	const nPages = 150
	urls := make([]string, nPages)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://s%02d.test/p%d", i%11, i)
	}
	pages := map[string]*Fetch{}
	for i, u := range urls {
		var out []string
		fanout := 3
		if i%12 == 0 {
			fanout = 15
		}
		for j := 1; j <= fanout; j++ {
			// Offsets 15, 29, 43, ... — 29 is coprime with nPages, so the
			// whole site is reachable from any seed.
			v := urls[(i+j*14+1)%nPages]
			if v != u {
				out = append(out, v)
			}
		}
		topic := "alpha"
		if i%3 == 0 {
			topic = "beta"
		}
		pages[u] = page(u, topic, out...)
	}
	f := &stubFetcher{pages: pages}
	c, _ := newTestCrawler(t, f, Config{
		Workers:      8,
		MaxFetches:   1000,
		DistillEvery: 25,
	})
	if err := c.Seed(urls[:4]); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	// No lost visits: the whole site is reachable and the budget ample.
	if res.Visited != nPages {
		t.Fatalf("visited = %d, want %d", res.Visited, nPages)
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

	// Harvest/visit-seq consistency.
	log := c.HarvestLog()
	if int64(len(log)) != res.Visited {
		t.Fatalf("harvest %d points, visited %d", len(log), res.Visited)
	}
	oids := map[int64]bool{}
	for i, h := range log {
		if h.Seq != int64(i+1) {
			t.Fatalf("harvest[%d].Seq = %d, want %d", i, h.Seq, i+1)
		}
		if oids[h.OID] {
			t.Fatalf("oid %d visited twice", h.OID)
		}
		oids[h.OID] = true
	}

	// Visited CRAWL rows agree.
	var visitedRows int64
	err = crawlTable(t, c).Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		if int32(tp[CStatus].Int()) == StatusVisited {
			visitedRows++
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visitedRows != res.Visited {
		t.Fatalf("CRAWL has %d visited rows, result says %d", visitedRows, res.Visited)
	}

	// Posterior equivalence, page by page: the crawl made this same call.
	for _, h := range log {
		p := c.model.Classify(textproc.VectorOfTokens(pages[h.URL].Tokens))
		if h.Relevance != c.model.Relevance(p) {
			t.Fatalf("%s: crawl relevance %.17g, per-page %.17g",
				h.URL, h.Relevance, c.model.Relevance(p))
		}
		if h.Kcid != int32(c.model.BestLeaf(p)) {
			t.Fatalf("%s: crawl kcid %d, per-page %d", h.URL, h.Kcid, c.model.BestLeaf(p))
		}
	}

	// Clean drain: every snapshotted distillation epoch published before Run
	// returned.
	snapped, published := c.DistillEpochs()
	if snapped != published {
		t.Fatalf("undrained distillation: snapshotted %d, published %d", snapped, published)
	}
	if res.Distills == 0 {
		t.Fatal("distillation never ran during the crawl")
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}
