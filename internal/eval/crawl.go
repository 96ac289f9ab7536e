package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"focus/internal/core"
	"focus/internal/crawler"
	"focus/internal/webgraph"
)

// crawlRun is one crawl of a study: the world, the topic marked good, the
// seeds, and the knobs handed to core.NewSystemOnWeb.
type crawlRun struct {
	// Web is the world to crawl; nil generates one from WebCfg. A study
	// that compares crawls passes the first run's System.Web to the rest.
	Web    *webgraph.Web
	WebCfg webgraph.Config
	Topic  string
	// SeedURLs seed the crawl when set; otherwise the Seeds most popular
	// pages of Topic do.
	SeedURLs []string
	Seeds    int
	Crawl    crawler.Config
	Frames   int
	DBPath   string
}

// crawlStats is what the studies read off a finished crawl: the crawler's
// own result, throughput, and the crawl DB's physical page I/O during Run
// (training and seeding are not counted).
type crawlStats struct {
	crawler.Result
	PagesPerSec float64
	DiskReads   int64
	DiskWrites  int64
}

// run is the one crawl path of the package. Fetch state and the topic mark
// are reset first, so several runs over one web start from the same world.
// The caller closes the system if it set DBPath.
func (r crawlRun) run() (*core.System, crawlStats, error) {
	web := r.Web
	if web == nil {
		var err error
		if web, err = webgraph.Generate(r.WebCfg); err != nil {
			return nil, crawlStats{}, err
		}
	}
	node := web.Cfg.Tree.ByName(r.Topic)
	if node == nil {
		return nil, crawlStats{}, fmt.Errorf("eval: unknown topic %q", r.Topic)
	}
	web.ResetFetches()
	web.Cfg.Tree.Unmark(node.ID)
	sys, err := core.NewSystemOnWeb(web, core.Config{
		GoodTopics: []string{r.Topic},
		Crawl:      r.Crawl,
		Frames:     r.Frames,
		DBPath:     r.DBPath,
	})
	if err != nil {
		return nil, crawlStats{}, err
	}
	seeds := r.SeedURLs
	if seeds == nil {
		seeds = web.Seeds(node.ID, r.Seeds)
	}
	if err := sys.Crawler.Seed(seeds); err != nil {
		sys.DB.Close()
		return nil, crawlStats{}, err
	}
	sys.DB.Disk().Stats().Reset()
	res, err := sys.Run()
	if err != nil {
		sys.DB.Close()
		return nil, crawlStats{}, err
	}
	st := crawlStats{Result: res}
	st.DiskReads, st.DiskWrites = sys.DB.Disk().Stats().Snapshot()
	if res.Elapsed > 0 {
		st.PagesPerSec = float64(res.Visited) / res.Elapsed.Seconds()
	}
	return sys, st, nil
}

func rnd(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

// writeJSON emits a study as indented JSON, the form of the BENCH_*.json
// artifacts CI archives.
func writeJSON(w io.Writer, study any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(study)
}
