package crawler

import (
	"errors"
	"math"
	"sort"

	"focus/internal/taxonomy"
)

// This file holds the ad-hoc monitoring queries of §3.7, written against
// the crawl relations exactly as the paper's SQL is. They are what made the
// DBMS-backed design pleasant to operate: harvest plots, stagnation
// diagnosis by class census, and the missed-neighbors-of-great-hubs probe.
// Only MissedNeighbors takes the stop-the-world barrier, because it reads
// the frontier rows of many shards as one state. The queries over visited
// pages (HarvestByWindow, CensusByClass, VisitedURLs) read the shards'
// visit logs, and the queries over the published scores (TopHubURLs,
// TopAuthorityURLs) the published ranking — see the contract below.
//
// Staleness contract: MissedNeighbors' CRAWL and LINK reads are exact as of
// the barrier. A visit-log query reads each shard's log as of that shard's
// lock, taken one shard at a time, so it holds every visit completed before
// it began and, from another shard, may miss one completed while it runs;
// an entry it does read is the visit's final row, never a half-written one.
// The hub and authority scores are the *published* distillation epoch —
// they trail the crawl by at most the epoch being computed (no epochs queue
// behind it; see Crawler.DistillEpochs). A query never observes a torn or
// half-written ranking: an epoch ranks its scores privately and publishes
// them whole through one atomic pointer, and a published ranking is never
// modified. So a score read loads the pointer once and takes no lock at
// all — topURLs slices the ranking and resolves URLs shard by shard, and
// crawl workers keep fetching throughout (the monitor-under-load stress
// test pins that).

// ErrNoDistillation reports a monitoring query that needs distilled scores
// before any distillation epoch has published them (hub-percentile
// thresholds are undefined over an empty ranking).
var ErrNoDistillation = errors.New("crawler: no distillation epoch published yet")

// HarvestBucket is one window of the harvest-rate monitor (the applet's
// "select minute(lastvisited), avg(exp(relevance))" query, with visit
// sequence standing in for wall-clock minutes).
type HarvestBucket struct {
	Bucket int64 // window index: lastvisited / window
	Count  int64
	// AvgExpRel is avg(exp(relevance)) over the window's visits — the
	// paper's §3.7 monitor quantity, which exaggerates swings near the top
	// of the relevance range so harvest-rate dips stand out in the plot.
	AvgExpRel float64
}

// HarvestByWindow groups visited pages into fixed-size visit windows and
// computes the paper's avg(exp(relevance)) per window, in ascending window
// order.
func (c *Crawler) HarvestByWindow(window int64) ([]HarvestBucket, error) {
	if window <= 0 {
		window = 100
	}
	buckets := make(map[int64]HarvestBucket) // AvgExpRel holds the sum until the end
	c.eachVisit(func(h *HarvestPoint) {
		b := buckets[h.Seq/window]
		b.Bucket = h.Seq / window
		b.Count++
		b.AvgExpRel += math.Exp(h.Relevance)
		buckets[b.Bucket] = b
	})
	out := make([]HarvestBucket, 0, len(buckets))
	for _, b := range buckets {
		b.AvgExpRel /= float64(b.Count)
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out, nil
}

// CensusRow is one class's population among visited pages.
type CensusRow struct {
	Kcid  int32
	Name  string
	Count int64
}

// CensusByClass is the stagnation-diagnosis query: how many visited pages
// landed in each best-matching class (ascending count, like the paper's
// "order by cnt").
func (c *Crawler) CensusByClass() ([]CensusRow, error) {
	counts := make(map[int32]int64)
	c.eachVisit(func(h *HarvestPoint) { counts[h.Kcid]++ })
	out := make([]CensusRow, 0, len(counts))
	for kcid, n := range counts {
		row := CensusRow{Kcid: kcid, Count: n}
		if node := c.model.Tree.Node(taxonomy.NodeID(kcid)); node != nil {
			row.Name = node.Name
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count < out[j].Count
		}
		return out[i].Kcid < out[j].Kcid
	})
	return out, nil
}

// MissedNeighbor is an unvisited page cited by a top hub.
type MissedNeighbor struct {
	URL       string
	Relevance float64
	HubOID    int64
}

// MissedNeighbors runs the §3.7 query: URLs with numtries = 0 that are
// linked from hubs above the given score percentile, across servers, in
// hub rank order (each hub's targets in its out-edge order). The hubs come
// from the published ranking, loaded before the barrier; the targets are
// read under it. Before the first distillation epoch publishes there is no
// hub score distribution to take a percentile of; that returns
// ErrNoDistillation rather than silently treating ψ=0 as the threshold
// (which would report every unvisited neighbor of every page as "missed").
func (c *Crawler) MissedNeighbors(percentile float64) ([]MissedNeighbor, error) {
	r, err := c.published()
	if err != nil {
		return nil, err
	}
	psi, ok := r.hubs.Percentile(percentile)
	if !ok {
		return nil, ErrNoDistillation
	}
	c.lockAll()
	defer c.unlockAll()
	var out []MissedNeighbor
	for _, h := range r.hubs.Above(psi) {
		err := c.links.OutEdgesLocked(h.OID, func(dst int64, sidSrc, sidDst int32) (bool, error) {
			if sidSrc == sidDst {
				return false, nil
			}
			// The directory rules out every target not in the frontier; only
			// frontier rows are read, for their tries and URL.
			sh := c.shardFor(sidDst)
			d, ok := sh.rids[dst]
			if !ok || int32(d.status) != StatusFrontier {
				return false, nil
			}
			row, err := sh.crawl.Get(d.rid())
			if err != nil {
				return true, err
			}
			if row[CTries].Int() == 0 {
				out = append(out, MissedNeighbor{
					URL:       row[CURL].S,
					Relevance: row[CRel].Float(),
					HubOID:    h.OID,
				})
			}
			return false, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TopHubURLs returns the k best hubs with URLs resolved.
func (c *Crawler) TopHubURLs(k int) ([]ScoredURL, error) {
	return c.topURLs(true, k)
}

// TopAuthorityURLs returns the k best authorities with URLs resolved.
func (c *Crawler) TopAuthorityURLs(k int) ([]ScoredURL, error) {
	return c.topURLs(false, k)
}

// ScoredURL pairs a URL with a distilled score.
type ScoredURL struct {
	OID   int64
	URL   string
	Score float64
}

// topURLs reads the published ranking without any lock: the top k are its
// prefix. URL resolution then walks the shards one shard lock at a time; a
// worker holds at most one shard lock itself, so monitors polling in a loop
// interleave with ingest instead of freezing it.
func (c *Crawler) topURLs(hubs bool, k int) ([]ScoredURL, error) {
	r, err := c.published()
	if err != nil {
		return nil, err
	}
	side := r.auth
	if hubs {
		side = r.hubs
	}
	top := side.Top(k)
	out := make([]ScoredURL, 0, len(top))
	for _, s := range top {
		out = append(out, ScoredURL{OID: s.OID, Score: s.Score})
	}
	return out, c.resolveURLs(out)
}

// resolveURLs fills in out's URLs one shard lock at a time. An oid's home
// shard is unknown (scores carry no sid), so each shard's oid directory is
// probed for the oids still unresolved; URLs are immutable once a row
// exists, so this is exact even as statuses change underneath.
func (c *Crawler) resolveURLs(out []ScoredURL) error {
	unresolved := len(out)
	for _, sh := range c.shards {
		if unresolved == 0 {
			break
		}
		sh.mu.Lock()
		for i := range out {
			if out[i].URL != "" {
				continue
			}
			_, row, ok, err := sh.lookupLocked(out[i].OID)
			if err != nil {
				sh.mu.Unlock()
				return err
			}
			if ok {
				out[i].URL = row[CURL].S
				unresolved--
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// VisitedURLs returns the URLs of visited pages with relevance above the
// threshold, plus the set of their servers — the coverage experiment's raw
// material (§3.5).
func (c *Crawler) VisitedURLs(minRelevance float64) (urls []string, servers map[string]bool, err error) {
	servers = make(map[string]bool)
	c.eachVisit(func(h *HarvestPoint) {
		if h.Relevance >= minRelevance {
			urls = append(urls, h.URL)
			servers[HostOf(h.URL)] = true
		}
	})
	return urls, servers, nil
}
