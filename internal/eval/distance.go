package eval

import (
	"fmt"
	"io"

	"focus/internal/crawler"
	"focus/internal/distiller"
	"focus/internal/linkgraph"
	"focus/internal/webgraph"
)

// DistanceConfig drives the Figure 7 experiment (§3.6): after a fixed
// crawl, histogram the shortest crawl-graph distance from the seed set to
// the top authorities, and list the top hubs.
type DistanceConfig struct {
	Web          webgraph.Config
	Topic        string
	Seeds        int
	Budget       int64
	Workers      int
	DistillEvery int64
	TopK         int
}

func (c DistanceConfig) withDefaults() DistanceConfig {
	if c.Topic == "" {
		c.Topic = "cycling"
	}
	if c.Seeds <= 0 {
		c.Seeds = 25
	}
	if c.Budget <= 0 {
		c.Budget = 3000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.DistillEvery <= 0 {
		c.DistillEvery = 500
	}
	if c.TopK <= 0 {
		c.TopK = 100
	}
	return c
}

// DistanceResult is the Figure 7 histogram plus the hub list.
type DistanceResult struct {
	// Histogram[d] counts top authorities whose shortest distance from the
	// seed set (over the crawl graph) is d.
	Histogram map[int]int
	// MaxDistance is the largest distance observed.
	MaxDistance int
	// Unreachable counts top authorities not reachable over crawled links
	// (should be rare).
	Unreachable int
	// TopHubs are the best hub URLs after the crawl.
	TopHubs []crawler.ScoredURL
	// TopAuthorities are the best authority URLs.
	TopAuthorities []crawler.ScoredURL
}

// RunDistance reproduces Figure 7. Distances are measured over the crawl
// graph (the LINK relation), because those are the paths the goal-directed
// system actually discovered — the full web's noise links are unknown to it.
func RunDistance(cfg DistanceConfig) (*DistanceResult, error) {
	cfg = cfg.withDefaults()
	sys, _, err := crawlRun{
		WebCfg: cfg.Web, Topic: cfg.Topic, Seeds: cfg.Seeds,
		Crawl: crawler.Config{
			Workers:      cfg.Workers,
			MaxFetches:   cfg.Budget,
			DistillEvery: cfg.DistillEvery,
		},
	}.run()
	if err != nil {
		return nil, err
	}

	out := &DistanceResult{Histogram: make(map[int]int)}
	out.TopHubs, err = sys.Crawler.TopHubURLs(16)
	if err != nil {
		return nil, err
	}
	out.TopAuthorities, err = sys.Crawler.TopAuthorityURLs(cfg.TopK)
	if err != nil {
		return nil, err
	}

	seeds := sys.Web.Seeds(sys.Tree.ByName(cfg.Topic).ID, cfg.Seeds)
	dist, err := CrawlGraphDistances(sys.Crawler.Links(), seedOIDs(seeds))
	if err != nil {
		return nil, err
	}
	for _, a := range out.TopAuthorities {
		d, ok := dist[a.OID]
		if !ok {
			out.Unreachable++
			continue
		}
		out.Histogram[d]++
		if d > out.MaxDistance {
			out.MaxDistance = d
		}
	}
	return out, nil
}

func seedOIDs(urls []string) []int64 {
	out := make([]int64, len(urls))
	for i, u := range urls {
		out[i] = crawler.OIDOf(u)
	}
	return out
}

// CrawlGraphDistances runs BFS over the LINK relation from the given oids.
func CrawlGraphDistances(link distiller.LinkRel, from []int64) (map[int64]int, error) {
	adj := make(map[int64][]int64)
	err := link.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	dist := make(map[int64]int)
	var queue []int64
	for _, oid := range from {
		if _, seen := dist[oid]; !seen {
			dist[oid] = 0
			queue = append(queue, oid)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nxt := range adj[cur] {
			if _, seen := dist[nxt]; !seen {
				dist[nxt] = dist[cur] + 1
				queue = append(queue, nxt)
			}
		}
	}
	return dist, nil
}

// Render prints the histogram and the hub list, Figure 7 style.
func (r *DistanceResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: shortest distance from seeds to top %d authorities\n",
		len(r.TopAuthorities))
	fmt.Fprintf(w, "%10s %10s\n", "distance", "frequency")
	for d := 0; d <= r.MaxDistance; d++ {
		if n := r.Histogram[d]; n > 0 {
			fmt.Fprintf(w, "%10d %10d\n", d, n)
		}
	}
	if r.Unreachable > 0 {
		fmt.Fprintf(w, "%10s %10d\n", "unreached", r.Unreachable)
	}
	fmt.Fprintf(w, "\nTop hubs:\n")
	for _, h := range r.TopHubs {
		fmt.Fprintf(w, "  %.5f  %s\n", h.Score, h.URL)
	}
}
