package crawler

import (
	"fmt"
	"math"
	"testing"

	"focus/internal/classifier"
	"focus/internal/distiller"
	"focus/internal/relstore"
)

// requireFreshDistill runs one more epoch on a crawl that has stopped and
// requires its published rankings to equal, bit for bit, the ranked result
// of a fresh distiller.Distill over the crawl's Tables: the kept
// arrangement, extended epoch by epoch by LINK's tail and the shards'
// relevance changes, must be the relation Tables hands out, its forward
// weights resolved against the visit logs. Tables is taken before the
// epoch, whose boost may raise rows after its cut.
func requireFreshDistill(t *testing.T, c *Crawler, name string) {
	t.Helper()
	tb, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.distill(); err != nil {
		t.Fatal(err)
	}
	pub := c.pub.Load()
	hubs, auth, _, err := distiller.Distill(tb, c.cfg.Distill)
	if err != nil {
		t.Fatal(err)
	}
	if len(pub.hubs) == 0 || len(pub.auth) == 0 {
		t.Fatalf("%s: the epoch scored %d hubs and %d authorities: too few to mean anything", name, len(pub.hubs), len(pub.auth))
	}
	for _, side := range []struct {
		name       string
		kept, want distiller.Ranking
	}{{"hubs", pub.hubs, distiller.Rank(hubs)}, {"authorities", pub.auth, distiller.Rank(auth)}} {
		if len(side.kept) != len(side.want) {
			t.Fatalf("%s: the kept arrangement ranks %d %s, a fresh Distill %d", name, len(side.kept), side.name, len(side.want))
		}
		for i, k := range side.kept {
			if w := side.want[i]; k.OID != w.OID || math.Float64bits(k.Score) != math.Float64bits(w.Score) {
				t.Fatalf("%s: %s rank %d is %d at %v, a fresh Distill has %d at %v", name, side.name, i, k.OID, k.Score, w.OID, w.Score)
			}
		}
	}
}

// TestKeptArrangementMatchesFreshDistillProperty crawls a 1 200-page stub
// site on 40 hosts at 1, 2 and 8 workers, distilling every 37 visits, and
// requires the kept arrangement's last epoch to score bit for bit as a
// fresh Distill of the crawl's Tables. It then resumes the crawl from its
// checkpoint — the first epoch after a resume reads all of LINK and seeds
// its changes from the oid directories — crawls on, and requires the same
// of the resumed crawl. The boost is off, so the epochs move no frontier
// page.
func TestKeptArrangementMatchesFreshDistillProperty(t *testing.T) {
	_, m := tinyModel(t)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{Workers: workers, MaxFetches: 500, DistillEvery: 37, HubNeighborBoost: -1}
			requireKeptMatchesFresh(t, m, genSite(45, 1200, 40, 0), cfg)
		})
	}
}

// TestKeptArrangementWithBoostAndFailuresMatchesFreshDistillProperty is
// TestKeptArrangementMatchesFreshDistillProperty with the writes a visit log
// never carried: the hub-neighbor boost on at its default, raising
// frontier rows after each epoch's cut, and a site whose every seventh page
// fails once or twice before it answers and every thirteenth is gone, so
// rows retry and die beside the raises of link expansion and completions
// below a row's priority. Every other page is on both topics, so its
// out-links are queued at a relevance the boost raises, and rho lies between
// the two: a boosted page becomes an authority.
func TestKeptArrangementWithBoostAndFailuresMatchesFreshDistillProperty(t *testing.T) {
	_, m := tinyModel(t)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := genSite(46, 1200, 40, 7)
			for i := 0; i < 1200; i++ {
				u := fmt.Sprintf("http://h%02d.test/p%04d", i%40, i)
				if p := f.pages[u]; i%13 == 12 {
					delete(f.pages, u)
				} else if i%2 == 0 {
					p.Tokens = append(page(u, "alpha").Tokens, page(u, "beta").Tokens...)
				}
			}
			cfg := Config{Workers: workers, MaxFetches: 500, DistillEvery: 37, Distill: distiller.Config{Rho: 0.6}}
			requireKeptMatchesFresh(t, m, f, cfg)
		})
	}
}

// requireKeptMatchesFresh crawls f under cfg to MaxFetches, requires
// requireFreshDistill of the crawl, resumes it from its checkpoint, crawls
// on to 900 fetches and requires the same of the resumed crawl. With the
// boost on it requires that some row was boosted, and on a site with
// failures that the first crawl retried and killed rows.
func requireKeptMatchesFresh(t *testing.T, m *classifier.Model, f *stubFetcher, cfg Config) {
	t.Helper()
	disk := relstore.NewMemDisk()
	opts := relstore.Options{Frames: 2048}
	db, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(db, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(seedURLs(f, 6)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.flaky) > 0 && (res.Retries == 0 || res.Dead == 0) {
		t.Fatalf("the flaky crawl retried %d times and killed %d rows: both should occur", res.Retries, res.Dead)
	}
	requireFreshDistill(t, c, "crawl")
	if c.cfg.HubNeighborBoost > 0 {
		requireBoosted(t, c)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	db2, err := relstore.OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxFetches = 900
	c2, err := Resume(db2, m, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := c2.DistillEpochs(); res.Visited <= c.visited.Load() || snap <= res.Visited/37 {
		t.Fatalf("the resumed crawl visited %d pages over %d epochs, the first %d", res.Visited, snap, c.visited.Load())
	}
	requireFreshDistill(t, c2, "resumed crawl")
}

// requireBoosted requires some CRAWL row to hold the boost's relevance: a
// frontier row raised by it, or a page visited at it.
func requireBoosted(t *testing.T, c *Crawler) {
	t.Helper()
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, d := range sh.rids {
			if d.rel == c.cfg.HubNeighborBoost && int32(d.status) == StatusFrontier {
				sh.mu.Unlock()
				return
			}
		}
		sh.mu.Unlock()
	}
	t.Fatal("no frontier row holds the boost's relevance: the epochs boosted nothing")
}
