package crawler

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"focus/internal/distiller"
	"focus/internal/relstore"
)

// plantVisited inserts a row for url and marks it visited with the given
// relevance as the crawl's next visit, logging it in its shard's visit log
// as complete does — a hand-built CRAWL state for pinning the monitoring
// queries against hand-computed answers.
func plantVisited(t *testing.T, c *Crawler, url string, rel float64) {
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
	key := frontierKeyOf(sh.policy, row)
	if !sh.front.delete(&key) {
		t.Fatal("planted row not in the frontier set")
	}
	sh.recomputeHeadLocked()
	seq := c.visited.Add(1)
	old := row.Clone()
	row[CRel] = relstore.F64(rel)
	row[CLast] = relstore.I64(seq)
	row[CStatus] = relstore.I32(StatusVisited)
	if err := sh.writeLocked(rid, old, row); err != nil {
		t.Fatal(err)
	}
	sh.frontierN.Add(-1)
	sh.visits = append(sh.visits, HarvestPoint{
		Seq: seq, OID: OIDOf(url), URL: url, Relevance: rel, Kcid: int32(row[CKcid].Int()),
	})
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
		plantVisited(t, c, fmt.Sprintf("http://h%d.test/p", i), rel)
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

// TestTopDecileHubsMatchesPercentile pins topDecileHubs's prefix of the
// ranking to the definition it replaced: the hubs scoring strictly above the
// nearest-rank 90th percentile — the score at ascending position
// round(0.9*(n-1)) — none when that threshold is 0 or there are no hubs.
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
		hubs := make([]distiller.Scored, len(scores))
		for i, s := range scores {
			hubs[i] = distiller.Scored{OID: int64(i), Score: s}
		}
		var want []int64
		if len(scores) > 0 {
			asc := slices.Clone(scores)
			sort.Float64s(asc)
			if psi := asc[int(math.Round(0.9*float64(len(asc)-1)))]; psi != 0 {
				for i, s := range scores {
					if s > psi {
						want = append(want, int64(i))
					}
				}
			}
		}
		var got []int64
		for _, h := range topDecileHubs(distiller.Rank(hubs)) {
			got = append(got, h.OID)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: topDecileHubs = %v, want %v", name, got, want)
		}
	}
}

// TestScoreReadsTakeNoGlobalLock: TopHubURLs and TopAuthorityURLs read the
// published ranking through its atomic pointer and resolve URLs under shard
// locks alone, so they answer while another goroutine holds every link
// stripe lock — the first half of the barrier.
func TestScoreReadsTakeNoGlobalLock(t *testing.T) {
	f := genSite(31, 120, 8, 0)
	c, _ := newTestCrawler(t, f, Config{Workers: 2, MaxFetches: 80, DistillEvery: 30})
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	answersBesideStripeLocks(t, c, "a top-k score read", func() error {
		hubs, err := c.TopHubURLs(5)
		if err == nil && len(hubs) == 0 {
			err = errors.New("no hubs published")
		}
		if err == nil {
			_, err = c.TopAuthorityURLs(5)
		}
		return err
	})
}

// TestVisitLogReadsTakeNoBarrier: HarvestByWindow, CensusByClass and
// VisitedURLs read the shards' visit logs one shard lock at a time, so they
// answer — with every visit, once the crawl is done — while another
// goroutine holds every link stripe lock, where the barrier would wait.
func TestVisitLogReadsTakeNoBarrier(t *testing.T) {
	f := genSite(33, 120, 8, 0)
	c, _ := newTestCrawler(t, f, Config{Workers: 2, MaxFetches: 80})
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	answersBesideStripeLocks(t, c, "a visit-log read", func() error {
		var n [3]int64
		hb, err := c.HarvestByWindow(10)
		if err != nil {
			return err
		}
		for _, b := range hb {
			n[0] += b.Count
		}
		census, err := c.CensusByClass()
		if err != nil {
			return err
		}
		for _, r := range census {
			n[1] += r.Count
		}
		urls, _, err := c.VisitedURLs(math.Inf(-1))
		n[2] = int64(len(urls))
		if err == nil && (n[0] != res.Visited || n[1] != res.Visited || n[2] != res.Visited) {
			err = fmt.Errorf("harvest, census and visited URLs count %v visits, the crawl made %d", n, res.Visited)
		}
		return err
	})
}

// answersBesideStripeLocks holds every link stripe lock while read runs in
// another goroutine, and fails unless read returns nil within five seconds.
func answersBesideStripeLocks(t *testing.T, c *Crawler, what string, read func() error) {
	t.Helper()
	c.links.LockAll()
	defer c.links.UnlockAll()
	done := make(chan error, 1)
	go func() { done <- read() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited on the link stripe locks", what)
	}
}

// TestTablesRunJoinRepublishes pins Tables' contract. Its HUBS and AUTH hold
// the published scores in ascending oid order; a distiller run over them
// publishes its result to the next score read, which is how a crawl that
// ran no epoch gets an end-of-crawl one; and an epoch published meanwhile
// supersedes the handed-out pair.
func TestTablesRunJoinRepublishes(t *testing.T) {
	f := genSite(37, 120, 8, 0)
	c, db := newTestCrawler(t, f, Config{Workers: 2, MaxFetches: 80}) // no epoch of its own
	if err := c.Seed(seedURLs(f, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if hubs, err := c.TopHubURLs(5); err != nil || len(hubs) != 0 {
		t.Fatalf("before any distillation TopHubURLs = %v, %v; want nothing", hubs, err)
	}
	tb, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Hubs == nil || tb.Auth == nil || tb.Hubs.Rows() != 0 || tb.Auth.Rows() != 0 {
		t.Fatal("Tables must hand out empty HUBS and AUTH before any distillation")
	}
	if _, err := distiller.RunJoin(db, tb, distiller.Config{}); err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		tab *relstore.Table
		top func(int) ([]ScoredURL, error)
	}{{tb.Hubs, c.TopHubURLs}, {tb.Auth, c.TopAuthorityURLs}} {
		s, err := distiller.ReadScores(side.tab)
		if err != nil {
			t.Fatal(err)
		}
		want := distiller.Rank(s).Top(10)
		got, err := side.top(10)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%s: %d published after RunJoin, the table ranks %d", side.tab.Name, len(got), len(want))
		}
		for i := range want {
			if got[i].OID != want[i].OID || got[i].Score != want[i].Score {
				t.Fatalf("%s[%d] = %+v, RunJoin's table ranks %+v", side.tab.Name, i, got[i], want[i])
			}
		}
	}
	if _, err := c.MissedNeighbors(0.5); err != nil {
		t.Fatalf("MissedNeighbors over the adopted scores: %v", err)
	}

	// Tables again: the same scores, in ascending oid order.
	tb2, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	s, err := distiller.ReadScores(tb2.Hubs)
	if err != nil {
		t.Fatal(err)
	}
	pub := c.pub.Load()
	if len(s) != len(pub.hubs) || !slices.IsSortedFunc(s, func(a, b distiller.Scored) int { return cmp.Compare(a.OID, b.OID) }) {
		t.Fatalf("Tables' HUBS holds %d rows (published %d), want them all in ascending oid order", len(s), len(pub.hubs))
	}
	if err := c.distill(); err != nil {
		t.Fatal(err)
	}
	if c.handed.Load() != nil {
		t.Fatal("an epoch left the handed-out pair to be adopted over it")
	}
	if _, pubEpoch := c.DistillEpochs(); pubEpoch != 1 {
		t.Fatalf("published epoch %d after one epoch", pubEpoch)
	}
}
