package distiller

import (
	"cmp"
	"fmt"
	"slices"
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

// Distill is RunJoin's in-memory core. It compiles the plan once per run:
// everything the iterations share is hoisted out of them.
//
//   - LINK is read once (Tables.Link.Scan). An edge is eligible iff it
//     passes the nepotism filter and, when a relevance view exists
//     (Config.Relevance, else one scan of Tables.Crawl), its destination's
//     relevance exceeds Rho. Only eligible edges are kept.
//   - The eligible edges are sorted once by (dst, src) and once by
//     (src, dst). Each order is laid out as groups of (peer, weight) terms;
//     the scores live in two dense vectors, so a half-iteration is one pass
//     over one order.
//
// It returns each side's scores in ascending oid order, 16 pointer-free
// bytes a scored page. Hubs and Auth are neither read nor needed.
//
// Row sets: the authorities are exactly the distinct destinations of
// eligible edges and the hubs exactly their distinct sources, which is what
// the inner joins of Figure 4 produce from the first iteration on. A page
// scoring 0 is still scored. With no eligible edge both sides are empty.
//
// Summation order: a group's terms are added in ascending peer oid, and a
// normalization sum in ascending group oid.
//
// Nothing is spilled: the plan holds under 100 bytes per eligible edge in
// memory. Breakdown.Scan covers reading LINK and the relevance view and
// laying out the two orders, Sort the two sorts, Update the iterations;
// Lookup stays 0.
func Distill(tb Tables, cfg Config) (hubs, auth []Scored, bd Breakdown, err error) {
	cfg = cfg.withDefaults()
	if tb.Link == nil {
		return nil, nil, bd, fmt.Errorf("distiller: missing tables")
	}

	t0 := time.Now()
	byDst, err := eligibleEdges(tb, cfg)
	if err != nil {
		return nil, nil, bd, err
	}
	bySrc := slices.Clone(byDst)
	bd.Scan += time.Since(t0)

	t0 = time.Now()
	slices.SortFunc(byDst, compareDstSrc)
	slices.SortFunc(bySrc, compareSrcDst)
	bd.Sort += time.Since(t0)

	t0 = time.Now()
	authOrder := layOut(byDst, func(e planEdge) (group, peer int64, w float64) { return e.dst, e.src, e.fwd })
	hubOrder := layOut(bySrc, func(e planEdge) (group, peer int64, w float64) { return e.src, e.dst, e.rev })
	authOrder.bindPeers(hubOrder.oids)
	hubOrder.bindPeers(authOrder.oids)
	bd.Scan += time.Since(t0)

	t0 = time.Now()
	hubScore := make([]float64, len(hubOrder.oids))
	for i := range hubScore {
		hubScore[i] = 1 // the standard HITS start vector
	}
	authScore := make([]float64, len(authOrder.oids))
	for it := 0; it < cfg.Iterations; it++ {
		authOrder.groupSums(authScore, hubScore)
		normalizeScores(authScore)
		hubOrder.groupSums(hubScore, authScore)
		normalizeScores(hubScore)
	}
	hubs, auth = scored(hubOrder.oids, hubScore), scored(authOrder.oids, authScore)
	bd.Update += time.Since(t0)
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

// planEdge is one eligible LINK row, reduced to what the iterations read.
type planEdge struct {
	src, dst int64
	fwd, rev float64
}

func compareDstSrc(a, b planEdge) int { return compareEdges(a, b, a.dst, b.dst, a.src, b.src) }
func compareSrcDst(a, b planEdge) int { return compareEdges(a, b, a.src, b.src, a.dst, b.dst) }

// compareEdges orders a and b by their (group, peer) oids. Equal endpoints —
// LINK stores a (src, dst) pair once, but the contract does not forbid
// repeats — fall back to the weights, so the order, and with it every float
// sum, depends on the edge multiset alone.
func compareEdges(a, b planEdge, groupA, groupB, peerA, peerB int64) int {
	if groupA != groupB {
		return cmp.Compare(groupA, groupB)
	}
	if peerA != peerB {
		return cmp.Compare(peerA, peerB)
	}
	if a.fwd != b.fwd {
		return cmp.Compare(a.fwd, b.fwd)
	}
	return cmp.Compare(a.rev, b.rev)
}

// eligibleEdges reads LINK once and keeps the eligible edges, with weight 1
// on both sides when cfg.Unweighted is set.
func eligibleEdges(tb Tables, cfg Config) ([]planEdge, error) {
	rel := cfg.Relevance
	if rel == nil && tb.Crawl != nil {
		var err error
		if rel, err = relevanceOf(tb.Crawl); err != nil {
			return nil, err
		}
	}
	var edges []planEdge
	err := tb.Link.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		if !cfg.keepEdge(t) {
			return false, nil
		}
		e := planEdge{src: t[lSrc].Int(), dst: t[lDst].Int(), fwd: cfg.fwdWeight(t), rev: cfg.revWeight(t)}
		if rel == nil || rel[e.dst] > cfg.Rho {
			edges = append(edges, e)
		}
		return false, nil
	})
	return edges, err
}

// edgeOrder is the eligible edges in one of the two sorted orders, grouped:
// group g is the page oids[g], and its terms are positions off[g] up to
// off[g+1] of peers and weights. peers holds the peer's oid until bindPeers
// replaces it with the peer's position in the other order's oids.
type edgeOrder struct {
	oids    []int64
	off     []int32
	peers   []int64
	weights []float64
}

// layOut groups a sorted edge slice by the group oid key reports.
func layOut(sorted []planEdge, key func(planEdge) (group, peer int64, w float64)) edgeOrder {
	o := edgeOrder{
		peers:   make([]int64, len(sorted)),
		weights: make([]float64, len(sorted)),
	}
	for i, e := range sorted {
		group, peer, w := key(e)
		if i == 0 || group != o.oids[len(o.oids)-1] {
			o.oids = append(o.oids, group)
			o.off = append(o.off, int32(i))
		}
		o.peers[i], o.weights[i] = peer, w
	}
	o.off = append(o.off, int32(len(sorted)))
	return o
}

// bindPeers replaces every peer oid with its position in peerOIDs, the other
// order's ascending group oids. Every peer is there: both orders hold the
// same edges.
func (o *edgeOrder) bindPeers(peerOIDs []int64) {
	for i, oid := range o.peers {
		at, _ := slices.BinarySearch(peerOIDs, oid)
		o.peers[i] = int64(at)
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
