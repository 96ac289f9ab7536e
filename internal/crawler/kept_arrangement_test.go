package crawler

import (
	"fmt"
	"math"
	"testing"

	"focus/internal/distiller"
	"focus/internal/relstore"
)

// requireFreshDistill runs one more epoch on a crawl that has stopped and
// requires its published rankings to equal, bit for bit, the ranked result
// of a fresh distiller.Distill over the crawl's Tables: the kept
// arrangement, extended epoch by epoch by LINK's tail and the visit logs'
// tails, must be the relation Tables hands out, its forward weights
// resolved against the same visit logs.
func requireFreshDistill(t *testing.T, c *Crawler, name string) {
	t.Helper()
	if err := c.distill(); err != nil {
		t.Fatal(err)
	}
	pub := c.pub.Load()
	tb, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
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
// checkpoint — the first epoch after a resume reads all of LINK and all of
// the visit logs — crawls on, and requires the same of the resumed crawl.
// The boost is off, so the epochs move no frontier page.
func TestKeptArrangementMatchesFreshDistillProperty(t *testing.T) {
	f := genSite(45, 1200, 40, 0)
	_, m := tinyModel(t)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			disk := relstore.NewMemDisk()
			opts := relstore.Options{Frames: 2048}
			db, err := relstore.OpenDurable(disk, opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Workers: workers, MaxFetches: 500, DistillEvery: 37, HubNeighborBoost: -1}
			c, err := New(db, m, f, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Seed(seedURLs(f, 6)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			requireFreshDistill(t, c, "crawl")
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
			res, err := c2.Run()
			if err != nil {
				t.Fatal(err)
			}
			if snap, _ := c2.DistillEpochs(); res.Visited <= c.visited.Load() || snap <= res.Visited/37 {
				t.Fatalf("the resumed crawl visited %d pages over %d epochs, the first %d", res.Visited, snap, c.visited.Load())
			}
			requireFreshDistill(t, c2, "resumed crawl")
		})
	}
}
