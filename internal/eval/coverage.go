package eval

import (
	"fmt"
	"io"
	"math"

	"focus/internal/crawler"
	"focus/internal/webgraph"
)

// CoverageConfig drives the Figure 6 experiment (§3.5): a reference crawl
// from seed set S1, then a test crawl from a disjoint seed set S2,
// monitoring how quickly the test crawl re-finds the reference crawl's
// relevant URLs and servers.
type CoverageConfig struct {
	Web       webgraph.Config
	Topic     string
	SeedsEach int
	Budget    int64
	Workers   int
}

// refMinRelevance is e^-1, the paper's log R > -1 threshold: the reference
// crawl's relevant URLs are the visited pages whose relevance exceeds it.
const refMinRelevance = 1 / math.E

func (c CoverageConfig) withDefaults() CoverageConfig {
	if c.Topic == "" {
		c.Topic = "cycling"
	}
	if c.SeedsEach <= 0 {
		c.SeedsEach = 20
	}
	if c.Budget <= 0 {
		c.Budget = 2000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// CoveragePoint is one sample of the coverage curves.
type CoveragePoint struct {
	Crawled    int64
	URLFrac    float64 // Figure 6(a)
	ServerFrac float64 // Figure 6(b)
	urlCovered int
	srvCovered int
}

// CoverageResult carries the Figure 6 curves.
type CoverageResult struct {
	RefRelevantURLs    int
	RefRelevantServers int
	Points             []CoveragePoint
	FinalURLFrac       float64
	FinalServerFrac    float64
}

// RunCoverage reproduces Figure 6.
func RunCoverage(cfg CoverageConfig) (*CoverageResult, error) {
	cfg = cfg.withDefaults()
	web, err := webgraph.Generate(cfg.Web)
	if err != nil {
		return nil, err
	}
	node := web.Cfg.Tree.ByName(cfg.Topic)
	if node == nil {
		return nil, fmt.Errorf("eval: unknown topic %q", cfg.Topic)
	}
	s1, s2 := web.SeedSets(node.ID, cfg.SeedsEach, cfg.SeedsEach)

	run := crawlRun{
		Web: web, Topic: cfg.Topic, SeedURLs: s1,
		Crawl: crawler.Config{Workers: cfg.Workers, MaxFetches: cfg.Budget},
	}
	ref, _, err := run.run()
	if err != nil {
		return nil, err
	}
	refURLs, refServers, err := ref.Crawler.VisitedURLs(refMinRelevance)
	if err != nil {
		return nil, err
	}
	refURLSet := make(map[string]bool, len(refURLs))
	for _, u := range refURLs {
		refURLSet[u] = true
	}

	run.SeedURLs = s2
	test, _, err := run.run()
	if err != nil {
		return nil, err
	}

	out := &CoverageResult{
		RefRelevantURLs:    len(refURLSet),
		RefRelevantServers: len(refServers),
	}
	if out.RefRelevantURLs == 0 {
		return nil, fmt.Errorf("eval: reference crawl found no relevant URLs")
	}
	covered := 0
	srvCovered := map[string]bool{}
	log := test.Crawler.HarvestLog()
	step := len(log) / 40
	if step == 0 {
		step = 1
	}
	for i, h := range log {
		if refURLSet[h.URL] {
			covered++
		}
		if host := crawler.HostOf(h.URL); refServers[host] && !srvCovered[host] {
			srvCovered[host] = true
		}
		if (i+1)%step == 0 || i == len(log)-1 {
			out.Points = append(out.Points, CoveragePoint{
				Crawled:    int64(i + 1),
				URLFrac:    float64(covered) / float64(out.RefRelevantURLs),
				ServerFrac: float64(len(srvCovered)) / float64(max(1, out.RefRelevantServers)),
				urlCovered: covered,
				srvCovered: len(srvCovered),
			})
		}
	}
	if n := len(out.Points); n > 0 {
		out.FinalURLFrac = out.Points[n-1].URLFrac
		out.FinalServerFrac = out.Points[n-1].ServerFrac
	}
	return out, nil
}

// Render prints the two coverage curves.
func (r *CoverageResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: coverage (reference crawl: %d relevant URLs on %d servers)\n",
		r.RefRelevantURLs, r.RefRelevantServers)
	fmt.Fprintf(w, "%10s %14s %14s\n", "#crawled", "URL frac", "server frac")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%10d %14.3f %14.3f\n", p.Crawled, p.URLFrac, p.ServerFrac)
	}
	fmt.Fprintf(w, "final: URL coverage %.1f%%, server coverage %.1f%%\n",
		100*r.FinalURLFrac, 100*r.FinalServerFrac)
}
