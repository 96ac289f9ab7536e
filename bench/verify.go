package main

import "fmt"

// Of standard's top twenty hubs, how many must be pages of the good topic by
// the generator's ground truth, and how many of those must be pages the
// generator made hubs. Sizing runs over ten seeds at 2000 fetches saw 20 of
// 20 on topic and 9 to 20 true hubs; one page in twenty is a hub, and one in
// nine is on topic, so an undirected ranking would score about 2 and 0.
const (
	minOnTopicHubs = 18
	minTrueHubs    = 6
)

// verify checks a finished crawl's outputs and returns what is wrong with
// them, nothing when they are right. It runs before the system is closed.
func verify(f crawlFacts) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	res, cr := f.res, f.sys.Crawler
	workers := int64(f.w.workers())

	if res.Visited != int64(len(f.log)) {
		fail("visited %d but the harvest log has %d entries", res.Visited, len(f.log))
	}
	if res.Visited+res.Failed != res.Fetches {
		fail("visited %d + failed %d != fetches %d", res.Visited, res.Failed, res.Fetches)
	}
	if res.Fetches > f.w.Crawl.MaxFetches+workers {
		fail("%d fetches overran the budget of %d by more than the %d workers", res.Fetches, f.w.Crawl.MaxFetches, workers)
	}
	if res.Visited == 0 {
		fail("nothing was visited")
	}
	seen := make(map[int64]bool, len(f.log))
	for _, h := range f.log {
		if seen[h.OID] {
			fail("oid %d (%s) is in the harvest log twice", h.OID, h.URL)
			break
		}
		seen[h.OID] = true
	}

	// Every workload has published scores by now: from its own epochs, or
	// from the one the end-of-crawl report asked for.
	hubs, err := cr.TopHubURLs(20)
	if err != nil {
		fail("top hubs: %v", err)
	}
	auths, err := cr.TopAuthorityURLs(1)
	if err != nil {
		fail("top authorities: %v", err)
	}
	if len(hubs) == 0 || len(auths) == 0 {
		fail("the published score tables are empty (%d hubs, %d authorities)", len(hubs), len(auths))
	}
	if f.w.HubCheck {
		onTopic, trueHubs := 0, 0
		for _, h := range hubs {
			p := f.sys.Web.PageByURL(h.URL)
			if p != nil && f.sys.Tree.IsGoodOrSubsumed(p.Topic) {
				onTopic++
				if p.IsHub {
					trueHubs++
				}
			}
		}
		if onTopic < minOnTopicHubs || trueHubs < minTrueHubs {
			fail("of the top %d hubs %d are on topic and %d of those are hubs by ground truth, want %d and %d",
				len(hubs), onTopic, trueHubs, minOnTopicHubs, minTrueHubs)
		}
	}

	if f.recovered != nil {
		p1, every := f.phase1.Visited, f.w.Crawl.CheckpointEvery
		if f.phase1.Checkpoints < 1 {
			fail("the crashed phase took no checkpoint")
		}
		if got := f.recovered.Visited; got > p1 || got < p1-every-workers {
			fail("recovered %d visits, want within [%d, %d]", got, p1-every-workers, p1)
		}
	}
	return bad
}
