package crawler

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowFetcher adds fixed latency to every fetch, stretching the crawl so a
// concurrent monitor has a real window to interfere with.
type slowFetcher struct {
	inner Fetcher
	delay time.Duration
}

func (s *slowFetcher) Fetch(url string) (*Fetch, error) {
	time.Sleep(s.delay)
	return s.inner.Fetch(url)
}

// TestMonitorUnderLoadStress asserts the published-score monitor queries no
// longer stop the world: 8 workers crawl (with distillation epochs
// publishing all along) while a monitor goroutine polls TopHubURLs and
// TopAuthorityURLs in a tight loop, and workers must keep making fetch
// progress throughout. Under the old implementation every poll took the
// full lockAll barrier, so a polling loop serialized the whole crawl; now
// the score snapshot needs only the global mutex and URL resolution one
// shard lock at a time. The test fails on (a) a wedged crawl — deadlock
// between monitor and ingest lock orders, the thing -race plus this
// schedule hunts — or (b) a fetch counter frozen for seconds while the
// monitor polls, or (c) a monitor that never completes polls concurrently
// with fetch progress.
func TestMonitorUnderLoadStress(t *testing.T) {
	f := genSite(17, 500, 16, 0)
	c, _ := newTestCrawler(t, &slowFetcher{inner: f, delay: time.Millisecond},
		Config{Workers: 8, MaxFetches: 400, DistillEvery: 60})
	if err := c.Seed(seedURLs(f, 6)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var polls atomic.Int64
	var monErr error
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := c.TopHubURLs(5); err != nil {
				monErr = err
				return
			}
			if _, err := c.TopAuthorityURLs(5); err != nil {
				monErr = err
				return
			}
			polls.Add(1)
		}
	}()

	runDone := make(chan error, 1)
	go func() {
		_, err := c.Run()
		runDone <- err
	}()

	// Sample (fetches, polls) while the crawl runs: progress on both sides
	// of the same sample window is the direct witness that monitor polling
	// and fetching proceed concurrently. A fetch counter frozen for 5s
	// while the crawl is unfinished is a stall (the barrier-per-poll
	// failure mode, or a lock-order deadlock).
	var (
		lastFetch, lastPolls int64
		concurrent           int
		frozenSince          = time.Now()
		runErr               error
	)
sampling:
	for {
		select {
		case runErr = <-runDone:
			break sampling
		case <-time.After(5 * time.Millisecond):
		}
		fn, pn := c.fetches.Load(), polls.Load()
		if fn > lastFetch {
			frozenSince = time.Now()
			if pn > lastPolls {
				concurrent++
			}
		} else if c.budgetSpent() {
			// Budget exhausted: fetches legitimately stop while the distill
			// queue drains; only Run's return matters now.
			frozenSince = time.Now()
		} else if time.Since(frozenSince) > 5*time.Second {
			t.Fatalf("no fetch progress for 5s at %d fetches while monitor polled %d times", fn, pn)
		}
		lastFetch, lastPolls = fn, pn
	}
	close(done)
	monWG.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if monErr != nil {
		t.Fatal(monErr)
	}
	if polls.Load() == 0 {
		t.Fatal("monitor completed no polls during the crawl")
	}
	if concurrent < 2 {
		t.Fatalf("observed only %d sample windows with both fetch and poll progress (crawl too fast or monitor starved)", concurrent)
	}

	// The queries still answer correctly at rest.
	hubs, err := c.TopHubURLs(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hubs) == 0 {
		t.Fatal("no hubs published after a distilling crawl")
	}
	for _, h := range hubs {
		if h.URL == "" {
			t.Fatalf("hub %d resolved to empty URL", h.OID)
		}
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}
