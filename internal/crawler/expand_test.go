package crawler

import (
	"fmt"
	"testing"
)

// TestExpandLinksAllocs guards the allocation count of a visit's link
// expansion — linkgraph.Apply with the edgeWeight callback, then the frontier
// pass — for a 44-link page whose targets are all new, into a crawl already
// holding a few thousand rows. What is left per new target is the frontier
// row's tuple and its index keys; the per-edge lookups, re-probes, URL
// re-hashing and row decodes allocate nothing. The same expansion allocated
// about 1 170 times before it worked in sets.
func TestExpandLinksAllocs(t *testing.T) {
	c, _ := newTestCrawler(t, &stubFetcher{}, Config{Workers: 2})
	page := func(n int) (int64, *Fetch) {
		url := fmt.Sprintf("http://h%02d.test/hub%05d", n%16, n)
		f := &Fetch{URL: url, ServerID: SIDOf(url)}
		for j := 0; j < 44; j++ {
			f.Outlinks = append(f.Outlinks, fmt.Sprintf("http://h%02d.test/p%05d-%02d", (n+j)%16, n, j))
		}
		return OIDOf(url), f
	}
	for n := 0; n < 100; n++ { // warm: 4 400 rows, trees two levels deep
		src, f := page(n)
		if err := c.expandLinks(src, f, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 50
	pages := make([]*Fetch, 0, runs+1)
	srcs := make([]int64, 0, runs+1)
	for n := 0; n <= runs; n++ {
		src, f := page(1000 + n)
		srcs, pages = append(srcs, src), append(pages, f)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		if err := c.expandLinks(srcs[next], pages[next], 0.5); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if got := c.FrontierSize(); got != int64(44*(100+runs+1)) {
		t.Fatalf("frontier holds %d rows, every link of every page should have added one", got)
	}
	// Landed at 197: four per new target (its tuple, its two index keys, the
	// head hint's key) plus a dozen per page.
	if avg > 260 {
		t.Fatalf("expanding a 44-link page allocates %.0f times, want at most 260", avg)
	}
}
