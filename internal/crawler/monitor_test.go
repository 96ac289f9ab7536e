package crawler

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/distiller"
	"focus/internal/relstore"
)

// plantVisited inserts a row for url and marks it visited with the given
// relevance and visit sequence — a hand-built CRAWL state for pinning the
// monitoring queries against hand-computed answers.
func plantVisited(t *testing.T, c *Crawler, url string, seq int64, rel float64) {
	t.Helper()
	if err := c.Seed([]string{url}); err != nil {
		t.Fatal(err)
	}
	sh := c.shardFor(SIDOf(url))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rid, row, ok, err := sh.lookupLocked(OIDOf(url))
	if err != nil || !ok {
		t.Fatalf("planted row lost: %v ok=%v", err, ok)
	}
	key, err := frontierKeyOf(sh.policy, row)
	if err != nil || !sh.front.delete(&key) {
		t.Fatalf("planted row not in the frontier set: %v", err)
	}
	sh.recomputeHeadLocked()
	old := row.Clone()
	row[CRel] = relstore.F64(rel)
	row[CLast] = relstore.I64(seq)
	row[CStatus] = relstore.I32(StatusVisited)
	if err := sh.writeLocked(rid, old, row); err != nil {
		t.Fatal(err)
	}
	sh.frontierN.Add(-1)
}

// TestHarvestByWindowExpAverage pins the harvest monitor to the paper's
// §3.7 quantity, avg(exp(relevance)) per visit window, with a hand-computed
// bucket table. The implementation used to average raw relevance while its
// doc comment claimed the exp form; the paper's text wins.
func TestHarvestByWindowExpAverage(t *testing.T) {
	c, _ := newTestCrawler(t, &stubFetcher{pages: map[string]*Fetch{}},
		Config{Workers: 1, MaxFetches: 1})
	rels := []float64{0, 0.5, 1, 0.25}
	for i, rel := range rels {
		plantVisited(t, c, fmt.Sprintf("http://h%d.test/p", i), int64(i+1), rel)
	}
	hb, err := c.HarvestByWindow(2)
	if err != nil {
		t.Fatal(err)
	}
	// Visit seqs 1..4 at window 2 bucket as 1/2=0, 2/2=3/2=1, 4/2=2.
	want := []HarvestBucket{
		{Bucket: 0, Count: 1, AvgExpRel: math.Exp(0)},
		{Bucket: 1, Count: 2, AvgExpRel: (math.Exp(0.5) + math.Exp(1)) / 2},
		{Bucket: 2, Count: 1, AvgExpRel: math.Exp(0.25)},
	}
	if len(hb) != len(want) {
		t.Fatalf("%d buckets, want %d: %+v", len(hb), len(want), hb)
	}
	for i, w := range want {
		g := hb[i]
		if g.Bucket != w.Bucket || g.Count != w.Count {
			t.Errorf("bucket %d = {%d, %d}, want {%d, %d}", i, g.Bucket, g.Count, w.Bucket, w.Count)
		}
		if math.Abs(g.AvgExpRel-w.AvgExpRel) > 1e-12 {
			t.Errorf("bucket %d avg exp(rel) = %.15f, hand-computed %.15f", i, g.AvgExpRel, w.AvgExpRel)
		}
	}
}

// TestMissedNeighborsBeforeDistillation pins the sentinel: with no
// distillation epoch published, the hub score table is empty, no percentile
// threshold exists, and the query must say so instead of treating ψ=0 as
// real (which would return every unvisited neighbor of every page).
func TestMissedNeighborsBeforeDistillation(t *testing.T) {
	f := &stubFetcher{pages: map[string]*Fetch{
		"http://a.test/1": page("http://a.test/1", "alpha", "http://b.test/2"),
	}}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 5}) // DistillEvery 0: never distills
	if err := c.Seed([]string{"http://a.test/1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MissedNeighbors(0.9); !errors.Is(err, ErrNoDistillation) {
		t.Fatalf("MissedNeighbors before any distillation returned %v, want ErrNoDistillation", err)
	}
}

// TestTopDecileHubsMatchesPercentile pins topDecileHubs's one-scan selection
// to the definition it replaced: the hubs scoring strictly above
// distiller.Percentile(hubs, 0.9), none when that threshold is 0 or the
// table is empty.
func TestTopDecileHubsMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]float64, 137)
	for i := range random {
		random[i] = float64(rng.Intn(50)) / 50 // plenty of ties, some at the threshold
	}
	cases := map[string][]float64{
		"empty":    nil,
		"all zero": make([]float64, 12),
		"one row":  {0.5},
		"ten rows": {0.1, 0.9, 0.3, 0.3, 0.8, 0.2, 0.7, 0, 0.6, 0.5},
		"top tie":  {0.2, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		"random":   random,
	}
	for name, scores := range cases {
		db := relstore.Open(relstore.Options{Frames: 64})
		hubs, err := db.CreateTable("HUBS", distiller.HubsAuthSchema())
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range scores {
			if _, err := hubs.Insert(relstore.Tuple{relstore.I64(int64(i)), relstore.F64(s)}); err != nil {
				t.Fatal(err)
			}
		}
		var want []int64
		if psi, ok, err := distiller.Percentile(hubs, 0.9); err != nil {
			t.Fatal(err)
		} else if ok && psi != 0 {
			for i, s := range scores {
				if s > psi {
					want = append(want, int64(i))
				}
			}
		}
		got, err := topDecileHubs(hubs)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: topDecileHubs = %v, want %v", name, got, want)
		}
	}
}
