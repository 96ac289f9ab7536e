package core

import (
	"fmt"
	"math"
	"testing"

	"focus/internal/crawler"
	"focus/internal/linkgraph"
	"focus/internal/webgraph"
)

// checkForwardWeights requires every edge the distiller reads through the
// crawler's Tables to carry the paper's EF[u,v] = relevance(v) when v was
// visited — the harvest log's relevance, bit for bit — and otherwise the
// ingest-time estimate relevance(u), which the crawl also stores as the
// edge's wgt_rev. LINK itself stores that estimate as both weights of every
// edge, which the crawler's Links must read back. It returns how many edges
// lead into visited pages.
func checkForwardWeights(t *testing.T, cr *crawler.Crawler) int {
	t.Helper()
	rel := map[int64]float64{}
	for _, h := range cr.HarvestLog() {
		rel[h.OID] = h.Relevance
	}
	tb, err := cr.Tables()
	if err != nil {
		t.Fatal(err)
	}
	into := 0
	err = tb.Link.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		want, visited := rel[e.Dst]
		if visited {
			into++
		} else {
			want = e.WgtRev
		}
		if math.Float64bits(e.WgtFwd) != math.Float64bits(want) {
			return true, fmt.Errorf("edge %d->%d reads wgt_fwd %v, want %v (dst visited: %v)", e.Src, e.Dst, e.WgtFwd, want, visited)
		}
		return false, nil
	})
	if err == nil {
		err = cr.Links().ScanEdges(func(e linkgraph.Edge) (bool, error) {
			if math.Float64bits(e.WgtFwd) != math.Float64bits(e.WgtRev) {
				return true, fmt.Errorf("LINK stores edge %d->%d with wgt_fwd %v and wgt_rev %v, want both the ingest estimate", e.Src, e.Dst, e.WgtFwd, e.WgtRev)
			}
			return false, nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return into
}

// TestForwardWeightsResolvedProperty crawls a generated web at 1, 2 and 8
// workers, distilling as it goes, and requires the EF rule of
// checkForwardWeights on every stored edge: concurrent visits, ingest and
// snapshots must leave no edge into a visited page reading its radius-1
// estimate through Tables, and no other edge with anything but that
// estimate.
func TestForwardWeightsResolvedProperty(t *testing.T) {
	web, err := webgraph.Generate(webgraph.Config{Seed: 7, NumPages: 12000})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sys, err := NewSystemOnWeb(web, Config{
				GoodTopics: []string{"cycling"},
				Crawl:      crawler.Config{Workers: workers, MaxFetches: 2000, DistillEvery: 500},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.SeedTopic("cycling", 10); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if into := checkForwardWeights(t, sys.Crawler); into == 0 {
				t.Fatal("no edge leads into a visited page: the rule was not exercised")
			}
			if err := sys.Crawler.CheckDirectory(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
