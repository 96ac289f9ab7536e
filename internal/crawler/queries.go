package crawler

import (
	"sort"

	"focus/internal/linkgraph"
	"focus/internal/taxonomy"
)

// This file implements the paper's §1 "advanced query power" examples over
// the crawl relations: queries that combine topical content (the
// classifier's best-leaf classes) with hyperlink structure (the LINK
// relation). These are exactly the standing queries the Focus system exists
// to answer without crawling the whole web. None stops the crawl: the
// classes come from the shards' visit logs, one shard lock at a time, and
// LINK is read through Store.Scan, one stripe lock at a time — so on a
// running crawl an answer may miss visits and edges that land while it
// reads (monitor.go's staleness contract).

// classifiedUnder reports whether class c lies in topic's subtree
// (ancestor-or-self), so queries can name internal topics.
func classifiedUnder(tree *taxonomy.Tree, c, topic taxonomy.NodeID) bool {
	n := tree.Node(c)
	for ; n != nil; n = n.Parent {
		if n.ID == topic {
			return true
		}
	}
	return false
}

// visitedClasses maps each logged visit's oid to its best-leaf class, from
// the shards' visit logs (see eachVisit).
func (c *Crawler) visitedClasses() map[int64]taxonomy.NodeID {
	out := make(map[int64]taxonomy.NodeID)
	c.eachVisit(func(h *HarvestPoint) { out[h.OID] = taxonomy.NodeID(h.Kcid) })
	return out
}

// CrossTopicCitations is the "community evolution" query shape of §1
// ("find the number of links from a page about environmental protection to
// a page related to oil and natural gas"): it counts stored links whose
// source is classified under topic a and whose target is classified under
// topic b. Either may be an internal taxonomy node.
func (c *Crawler) CrossTopicCitations(a, b taxonomy.NodeID) (int64, error) {
	classes := c.visitedClasses()
	tree := c.model.Tree
	var n int64
	err := c.links.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		src, okS := classes[e.Src]
		dst, okD := classes[e.Dst]
		if okS && okD && classifiedUnder(tree, src, a) && classifiedUnder(tree, dst, b) {
			n++
		}
		return false, nil
	})
	return n, err
}

// Suspect is one answer row of the SpamSuspects query.
type Suspect struct {
	URL    string
	Citers int
}

// SpamSuspects is the "spam filter" query shape of §1 ("find pages that
// are apparently about database research which are cited by at least two
// pages about Hawaiian vacations"): visited pages classified under target
// that are cited by at least minCiters distinct visited pages classified
// under the off-topic citer topic.
func (c *Crawler) SpamSuspects(target, citer taxonomy.NodeID, minCiters int) ([]Suspect, error) {
	classes := c.visitedClasses()
	tree := c.model.Tree
	citersOf := make(map[int64]map[int64]bool)
	err := c.links.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		src, okS := classes[e.Src]
		dst, okD := classes[e.Dst]
		if !okS || !okD {
			return false, nil
		}
		if classifiedUnder(tree, dst, target) && classifiedUnder(tree, src, citer) {
			set := citersOf[e.Dst]
			if set == nil {
				set = make(map[int64]bool)
				citersOf[e.Dst] = set
			}
			set[e.Src] = true
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	var found []ScoredURL
	for oid, set := range citersOf {
		if len(set) >= minCiters {
			found = append(found, ScoredURL{OID: oid})
		}
	}
	if err := c.resolveURLs(found); err != nil {
		return nil, err
	}
	out := make([]Suspect, 0, len(found))
	for _, f := range found {
		out = append(out, Suspect{URL: f.URL, Citers: len(citersOf[f.OID])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Citers != out[j].Citers {
			return out[i].Citers > out[j].Citers
		}
		return out[i].URL < out[j].URL
	})
	return out, nil
}

// NeighborhoodCensus returns, for visited pages classified under the given
// topic, the class distribution of their visited link targets — the raw
// material of the §1 citation-sociology query. examples/citationsociology
// calls it and computes each class's lift over web-at-large base rates.
func (c *Crawler) NeighborhoodCensus(topic taxonomy.NodeID) (map[taxonomy.NodeID]int64, error) {
	classes := c.visitedClasses()
	tree := c.model.Tree
	out := make(map[taxonomy.NodeID]int64)
	err := c.links.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		src, okS := classes[e.Src]
		dst, okD := classes[e.Dst]
		if okS && okD && classifiedUnder(tree, src, topic) {
			out[dst]++
		}
		return false, nil
	})
	return out, err
}
