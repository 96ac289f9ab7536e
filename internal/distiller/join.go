package distiller

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"focus/internal/relstore"
)

// RunJoin executes the configured number of HITS iterations as the
// set-oriented plan of Figure 4 — each half-iteration a merge of LINK,
// sorted by the group column, with a score table, followed by a group-sum —
// and loads the result into HUBS and AUTH: Distill, then each table
// truncated and loaded once, in ascending oid order. Breakdown.Update
// covers the iterations and the two loads.
func RunJoin(_ *relstore.DB, tb Tables, cfg Config) (Breakdown, error) {
	if err := checkTables(tb); err != nil {
		return Breakdown{}, err
	}
	hubs, auth, bd, err := Distill(tb, cfg)
	if err != nil {
		return bd, err
	}
	t0 := time.Now()
	if err := WriteScores(tb.Auth, auth); err != nil {
		return bd, err
	}
	if err := WriteScores(tb.Hubs, hubs); err != nil {
		return bd, err
	}
	bd.Update += time.Since(t0)
	return bd, nil
}

// Distill is RunJoin's in-memory core: a fresh Arrangement extended by all
// of Tables.Link, and one Run, so a one-shot run and the crawler's kept
// arrangement share one plan.
//
//   - LINK is read once, as typed edges (Tables.Link.ScanEdges). An edge is
//     eligible iff it passes the nepotism filter and, when a relevance view
//     exists (Config.Relevance, else one scan of Tables.Crawl), its
//     destination's relevance exceeds Rho. Only eligible edges are kept.
//   - The eligible edges are sorted once, by (dst, src, fwd, rev): grouped
//     by dst, the authorities' side. A stable counting sort on source rank
//     turns it into the hubs' side, grouped by src. Each side is groups of
//     (peer rank, weight) terms; the scores live in two dense vectors, so a
//     half-iteration is one pass over one side.
//
// It returns each side's scores in ascending oid order, 16 pointer-free
// bytes a scored page. Hubs and Auth are neither read nor needed.
//
// Row sets: the authorities are exactly the distinct destinations of
// eligible edges and the hubs exactly their distinct sources, which is what
// the inner joins of Figure 4 produce from the first iteration on. A page
// scoring 0 is still scored. With no eligible edge both sides are empty.
//
// Summation order: a group's terms are added in ascending peer oid (equal
// endpoints in ascending weights), and a normalization sum in ascending
// group oid.
//
// Nothing is spilled: the plan holds under 100 bytes per eligible edge in
// memory. Breakdown.Scan covers reading LINK and the relevance view, the
// eligibility pass, the source ranking and the authorities' layout, Sort
// the sorts, the merge and the counting sort, Update the iterations;
// Lookup stays 0.
func Distill(tb Tables, cfg Config) (hubs, auth []Scored, bd Breakdown, err error) {
	if tb.Link == nil {
		return nil, nil, bd, fmt.Errorf("distiller: missing tables")
	}
	t0 := time.Now()
	rel := cfg.Relevance
	if rel == nil && tb.Crawl != nil {
		if rel, err = relevanceOf(tb.Crawl); err != nil {
			return nil, nil, bd, err
		}
	}
	// The one run reads only the eligible edges, so only they are held.
	a := NewArrangement(cfg)
	tail, err := a.read(tb.Link, rel, nil)
	if err != nil {
		return nil, nil, bd, err
	}
	bd.Scan += time.Since(t0)
	t0 = time.Now()
	a.insert(tail, nil)
	bd.Sort += time.Since(t0)
	t0 = time.Now()
	for g := range a.groups {
		a.groups[g].rel = math.Inf(1) // no relevance view: no rho filter
		if rel != nil {
			a.groups[g].rel = rel[a.groups[g].oid]
		}
	}
	bd.Scan += time.Since(t0)
	hubs, auth, run := a.Run()
	bd.add(run)
	return hubs, auth, bd, nil
}

// scored pairs oids[i] with scores[i].
func scored(oids []int64, scores []float64) []Scored {
	out := make([]Scored, len(oids))
	for i, oid := range oids {
		out[i] = Scored{OID: oid, Score: scores[i]}
	}
	return out
}

// compareEdges orders edges by (dst, src). Equal endpoints — LINK stores a
// (src, dst) pair once, but the contract does not forbid repeats — fall
// back to the weights, so the order, and with it every float sum, depends
// on the edge multiset alone.
func compareEdges(a, b planEdge) int {
	if a.dst != b.dst {
		return cmp.Compare(a.dst, b.dst)
	}
	if a.src != b.src {
		return cmp.Compare(a.src, b.src)
	}
	if a.fwd != b.fwd {
		return cmp.Compare(a.fwd, b.fwd)
	}
	return cmp.Compare(a.rev, b.rev)
}

// edgeOrder is the eligible edges grouped by one endpoint: group g is the
// page oids[g], and its terms are positions off[g] up to off[g+1] of peers,
// each the other endpoint's rank in the other side's oids, and weights.
type edgeOrder struct {
	oids    []int64
	off     []int32
	peers   []int32
	weights []float64
}

// bySource lays out h, the hubs' side, from the authorities' side o: a
// stable counting sort on source rank, so a hub's terms keep o's (dst, fwd,
// rev) order, each an authority rank and a reverse weight, revs[i] for o's
// term i. h.oids is set; h.off and next are len(h.oids)+1 long, and h.peers
// and h.weights len(revs), their contents stale.
func (o *edgeOrder) bySource(h *edgeOrder, revs []float64, next []int32) {
	clear(h.off)
	for _, hub := range o.peers {
		h.off[hub+1]++
	}
	for g := range h.oids {
		h.off[g+1] += h.off[g]
	}
	copy(next, h.off)
	for g := range o.oids {
		for i := o.off[g]; i < o.off[g+1]; i++ {
			at := &next[o.peers[i]]
			h.peers[*at], h.weights[*at] = int32(g), revs[i]
			*at++
		}
	}
}

// groupSums is one half-iteration: out[g] = Σ in[peer] * weight over group
// g's terms, in their stored order.
func (o *edgeOrder) groupSums(out, in []float64) {
	for g := range o.oids {
		var s float64
		for i := o.off[g]; i < o.off[g+1]; i++ {
			s += in[o.peers[i]] * o.weights[i]
		}
		out[g] = s
	}
}

// normalizeScores rescales scores to sum to 1, adding them in index order;
// a zero sum leaves them as they are.
func normalizeScores(scores []float64) {
	var sum float64
	for _, s := range scores {
		sum += s
	}
	if sum > 0 {
		for i := range scores {
			scores[i] /= sum
		}
	}
}
