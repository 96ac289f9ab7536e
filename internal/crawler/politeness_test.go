package crawler

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"focus/internal/relstore"
)

func TestMaxRetriesDisabledFailsFast(t *testing.T) {
	f := &stubFetcher{
		pages: map[string]*Fetch{"http://a.test/1": page("http://a.test/1", "alpha")},
		flaky: map[string]int{"http://a.test/1": 99},
	}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 10})
	c.retryBudget = 0
	c.Seed([]string{"http://a.test/1"})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fetches != 1 || res.Dead != 1 || res.Retries != 0 {
		t.Fatalf("fetches=%d dead=%d retries=%d; want one attempt, no retries",
			res.Fetches, res.Dead, res.Retries)
	}
	if res.DeadByCause[CauseTimeoutBudget] != 1 {
		t.Fatalf("DeadByCause = %v", res.DeadByCause)
	}
}

func TestFailureBreakdownCounters(t *testing.T) {
	// One page that times out once then succeeds, one dead link: Failed
	// must split into cause counters, with the retry counted separately
	// from the dead page.
	f := &stubFetcher{
		pages: map[string]*Fetch{
			"http://a.test/1": page("http://a.test/1", "alpha", "http://a.test/gone"),
		},
		flaky: map[string]int{"http://a.test/1": 1},
	}
	c, _ := newTestCrawler(t, f, Config{Workers: 1, MaxFetches: 10})
	c.Seed([]string{"http://a.test/1"})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 || res.Failed != 2 {
		t.Fatalf("visited=%d failed=%d", res.Visited, res.Failed)
	}
	if res.TimeoutFailures != 1 || res.NotFoundFailures != 1 || res.RateLimitedFailures != 0 {
		t.Fatalf("breakdown: timeout=%d notfound=%d limited=%d",
			res.TimeoutFailures, res.NotFoundFailures, res.RateLimitedFailures)
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d", res.Retries)
	}
	if res.DeadByCause[CauseNotFound] != 1 || len(res.DeadByCause) != 1 {
		t.Fatalf("DeadByCause = %v", res.DeadByCause)
	}
	if res.Failed != res.Retries+res.Dead {
		t.Fatalf("failed %d != retries %d + dead %d", res.Failed, res.Retries, res.Dead)
	}
}

// timedFetcher records each fetch attempt's start time per URL.
type timedFetcher struct {
	mu    sync.Mutex
	times map[string][]time.Time
	fetch func(url string, attempt int) (*Fetch, error)
}

func (f *timedFetcher) Fetch(url string) (*Fetch, error) {
	f.mu.Lock()
	if f.times == nil {
		f.times = map[string][]time.Time{}
	}
	f.times[url] = append(f.times[url], time.Now())
	attempt := len(f.times[url])
	f.mu.Unlock()
	return f.fetch(url, attempt)
}

func (f *timedFetcher) gap(url string) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	ts := f.times[url]
	if len(ts) < 2 {
		return -1
	}
	return ts[1].Sub(ts[0])
}

func TestRetryBackoffDelaysRequeue(t *testing.T) {
	u := "http://a.test/1"
	f := &timedFetcher{fetch: func(url string, attempt int) (*Fetch, error) {
		if attempt == 1 {
			return nil, fmt.Errorf("%w: induced", ErrTransient)
		}
		return page(url, "alpha"), nil
	}}
	c, _ := newTestCrawler(t, f, Config{Workers: 2, MaxFetches: 10, Polite: true})
	c.retryBackoff = 40 * time.Millisecond
	c.Seed([]string{u})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 || res.Retries != 1 {
		t.Fatalf("visited=%d retries=%d", res.Visited, res.Retries)
	}
	// First retry backs off retryBackoff·[1.0,1.5); allow scheduler slack
	// downward only.
	if g := f.gap(u); g < 35*time.Millisecond {
		t.Fatalf("retry after %v; backoff not honored", g)
	}
}

func TestRateLimitedRetryAfterHonored(t *testing.T) {
	u := "http://a.test/1"
	mk := func() *timedFetcher {
		return &timedFetcher{fetch: func(url string, attempt int) (*Fetch, error) {
			if attempt == 1 {
				return nil, &RateLimitedError{RetryAfter: 50 * time.Millisecond, Err: ErrRateLimited}
			}
			return page(url, "alpha"), nil
		}}
	}

	// Polite config: the retry-after hint, not the far shorter backoff,
	// gates the requeue.
	f := mk()
	c, _ := newTestCrawler(t, f, Config{Workers: 2, MaxFetches: 10, Polite: true})
	c.retryBackoff = time.Millisecond
	c.Seed([]string{u})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 || res.RateLimitedFailures != 1 {
		t.Fatalf("visited=%d limited=%d", res.Visited, res.RateLimitedFailures)
	}
	if g := f.gap(u); g < 45*time.Millisecond {
		t.Fatalf("polite retry after %v; retry-after hint not honored", g)
	}

	// Naive config ignores the hint and retries immediately.
	f = mk()
	c, _ = newTestCrawler(t, f, Config{Workers: 2, MaxFetches: 10})
	c.Seed([]string{u})
	if res, err = c.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 {
		t.Fatalf("visited = %d", res.Visited)
	}
	if g := f.gap(u); g > 40*time.Millisecond {
		t.Fatalf("naive retry after %v; expected an immediate requeue", g)
	}
}

// concurrencyFetcher tracks per-host concurrent fetches.
type concurrencyFetcher struct {
	mu      sync.Mutex
	cur     map[string]int
	peak    map[string]int
	starts  map[string][]time.Time
	latency time.Duration
	pages   map[string]*Fetch
}

func (f *concurrencyFetcher) Fetch(url string) (*Fetch, error) {
	host := HostOf(url)
	f.mu.Lock()
	f.cur[host]++
	if f.cur[host] > f.peak[host] {
		f.peak[host] = f.cur[host]
	}
	f.starts[host] = append(f.starts[host], time.Now())
	f.mu.Unlock()
	time.Sleep(f.latency)
	f.mu.Lock()
	f.cur[host]--
	p, ok := f.pages[url]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("stub: 404 %s", url)
	}
	return p, nil
}

func TestHostPoliteness(t *testing.T) {
	// Six pages on one hot host, a few elsewhere; an in-flight cap of 1 and
	// the pacing delay must cap concurrency at one fetch per host and space
	// out fetch starts, while other hosts proceed meanwhile. No fetch fails,
	// so backoff and the breaker stay idle.
	f := &concurrencyFetcher{
		cur: map[string]int{}, peak: map[string]int{},
		starts: map[string][]time.Time{}, latency: 2 * time.Millisecond,
		pages: map[string]*Fetch{},
	}
	var seeds []string
	for i := 0; i < 6; i++ {
		u := fmt.Sprintf("http://hot.test/p%d", i)
		f.pages[u] = page(u, "alpha")
		seeds = append(seeds, u)
	}
	for i := 0; i < 3; i++ {
		u := fmt.Sprintf("http://cold%d.test/p", i)
		f.pages[u] = page(u, "alpha")
		seeds = append(seeds, u)
	}
	const delay = 10 * time.Millisecond
	c, _ := newTestCrawler(t, f, Config{Workers: 4, MaxFetches: 20, Polite: true})
	c.hostMaxInflight, c.hostDelay = 1, delay
	c.Seed(seeds)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 9 {
		t.Fatalf("visited = %d, want 9", res.Visited)
	}
	if p := f.peak["hot.test"]; p > 1 {
		t.Fatalf("hot host peak concurrency = %d with an in-flight cap of 1", p)
	}
	starts := f.starts["hot.test"]
	if len(starts) != 6 {
		t.Fatalf("hot host fetches = %d", len(starts))
	}
	for i := 1; i < len(starts); i++ {
		if g := starts[i].Sub(starts[i-1]); g < delay-2*time.Millisecond {
			t.Fatalf("hot host fetch gap %d = %v, want ~%v", i, g, delay)
		}
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	// Host A fails its first 3 fetches transiently, then heals. With a
	// breaker threshold of 2 the breaker trips on the second failure, the
	// failed half-open probe re-trips it, and the next probe closes it;
	// every page must still be visited. A's two pages fit its in-flight
	// cap, and pacing only spaces its fetches out.
	var mu sync.Mutex
	aFails := 0
	f := &timedFetcher{fetch: func(url string, _ int) (*Fetch, error) {
		if HostOf(url) == "a.test" {
			mu.Lock()
			defer mu.Unlock()
			if aFails < 3 {
				aFails++
				return nil, fmt.Errorf("%w: induced", ErrTransient)
			}
		}
		return page(url, "alpha"), nil
	}}
	c, _ := newTestCrawler(t, f, Config{Workers: 2, MaxFetches: 50, Polite: true})
	c.retryBudget, c.cooldown = 10, 15*time.Millisecond
	c.retryBackoff, c.breakerAfter = 2*time.Millisecond, 2
	c.Seed([]string{"http://a.test/1", "http://a.test/2", "http://b.test/1"})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 3 || res.Dead != 0 {
		t.Fatalf("visited=%d dead=%d; host did heal", res.Visited, res.Dead)
	}
	if res.BreakerTrips != 2 {
		t.Fatalf("breaker trips = %d, want 2 (initial + failed probe)", res.BreakerTrips)
	}
}

// darkHostFetcher serves a multi-host site and turns one host permanently
// dark after that host's own darkAt-th fetch — the hot-host-goes-dark
// stress scenario.
type darkHostFetcher struct {
	mu          sync.Mutex
	pages       map[string]*Fetch
	hostFetches int // fetches of darkHost so far
	darkHost    string
	darkAt      int
}

func (f *darkHostFetcher) Fetch(url string) (*Fetch, error) {
	f.mu.Lock()
	dark := false
	if HostOf(url) == f.darkHost {
		f.hostFetches++
		dark = f.hostFetches > f.darkAt
	}
	p, ok := f.pages[url]
	f.mu.Unlock()
	time.Sleep(200 * time.Microsecond)
	if dark {
		return nil, fmt.Errorf("%w: %s unreachable", ErrTransient, f.darkHost)
	}
	if !ok {
		return nil, fmt.Errorf("stub: 404 %s", url)
	}
	return p, nil
}

func TestPoliteHostDarkStress(t *testing.T) {
	// A hot host holding a third of the site goes dark mid-crawl while
	// the full politeness stack (pacing, backoff, breaker) is on. The
	// crawl must finish without losing rows: inflight returns to zero, no
	// row is left checked out, the breaker trips, and the outcome
	// counters balance.
	//
	// The host goes dark after its own fifth fetch, so at least five of
	// the hot pages c4 links to (p0-p9) are still unfetched; c4 is crawled
	// whole, so each is found and fails twice before the retry budget of
	// 2 kills it, and the failures run well past the breaker's three.
	// Darkness keyed to the crawl's fetch count could come after the hot
	// chain reached p9, leaving one row whose two failures never reach
	// three.
	f := &darkHostFetcher{pages: map[string]*Fetch{}, darkHost: "hot.test", darkAt: 5}
	hosts := []string{"hot.test", "c0.test", "c1.test", "c2.test", "c3.test", "c4.test"}
	var seeds []string
	for hi, h := range hosts {
		n := 10
		if h == "hot.test" {
			n = 30
		}
		for i := 0; i < n; i++ {
			u := fmt.Sprintf("http://%s/p%d", h, i)
			// Chain within the host plus a cross-host link, so link
			// expansion keeps refilling the frontier from live hosts.
			links := []string{fmt.Sprintf("http://%s/p%d", h, (i+1)%n)}
			links = append(links, fmt.Sprintf("http://%s/p%d", hosts[(hi+1)%len(hosts)], i%10))
			f.pages[u] = page(u, "alpha", links...)
			if i == 0 {
				seeds = append(seeds, u)
			}
		}
	}
	c, _ := newTestCrawler(t, f, Config{Workers: 8, MaxFetches: 300, Polite: true})
	c.retryBudget, c.cooldown = 2, 5*time.Millisecond
	c.retryBackoff, c.hostDelay = time.Millisecond, 500*time.Microsecond
	c.Seed(seeds)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := c.inflight.Load(); n != 0 {
		t.Fatalf("inflight = %d after Run", n)
	}
	if res.BreakerTrips == 0 {
		t.Fatal("dark host never tripped its breaker")
	}
	if res.Failed != res.Retries+res.Dead {
		t.Fatalf("failed %d != retries %d + dead %d", res.Failed, res.Retries, res.Dead)
	}
	if res.Failed != res.TimeoutFailures+res.NotFoundFailures+res.RateLimitedFailures {
		t.Fatalf("cause counters do not partition Failed: %+v", res)
	}
	if !res.Stagnated && res.Fetches < 300 {
		t.Fatalf("crawl ended early without stagnating: %+v", res)
	}
	// No row may be stranded in flight, and the status counts must match
	// the result totals.
	for _, sh := range c.shards {
		if sh.inflightRows != 0 {
			t.Fatalf("shard %d: %d rows stranded in flight", sh.id, sh.inflightRows)
		}
	}
	counts := map[int32]int64{}
	err = crawlTable(t, c).Scan(func(_ relstore.RID, row relstore.Tuple) (bool, error) {
		counts[int32(row[CStatus].Int())]++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[StatusVisited] != res.Visited || counts[StatusDead] != res.Dead {
		t.Fatalf("status counts %v vs result visited=%d dead=%d",
			counts, res.Visited, res.Dead)
	}
	var dbc int64
	for _, n := range res.DeadByCause {
		dbc += n
	}
	if dbc != res.Dead {
		t.Fatalf("DeadByCause sums to %d, Dead = %d", dbc, res.Dead)
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

func TestPendingBackoffIsNotStagnation(t *testing.T) {
	// A single row in backoff with nothing in flight: the workers must
	// wait for its eligibility, not exit as stagnated.
	u := "http://a.test/1"
	f := &timedFetcher{fetch: func(url string, attempt int) (*Fetch, error) {
		if attempt == 1 {
			return nil, fmt.Errorf("%w: induced", ErrTransient)
		}
		return page(url, "alpha"), nil
	}}
	c, _ := newTestCrawler(t, f, Config{Workers: 4, MaxFetches: 10, Polite: true})
	c.retryBackoff = 30 * time.Millisecond
	c.Seed([]string{u})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 {
		t.Fatalf("visited = %d: workers exited during backoff", res.Visited)
	}
}
