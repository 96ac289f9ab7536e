package distiller

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/linkgraph"
)

// oldPlan is the plan Distill compiled before it sorted once: two
// comparison sorts of the eligible edges, by (dst, src, fwd, rev) and by
// (src, dst, fwd, rev), each laid out with the peers' oids, which a binary
// search then replaced with their positions in the other order. It is kept
// here, and only here, as the reference the one-sort plan must equal bit for
// bit.
func oldPlan(edges []linkgraph.Edge, rel map[int64]float64, cfg Config) (hubs, auth []Scored) {
	cfg = cfg.withDefaults()
	var byDst []planEdge
	for _, e := range edges {
		if (cfg.NoNepotismFilter || e.SidSrc != e.SidDst) && (rel == nil || rel[e.Dst] > cfg.Rho) {
			pe := planEdge{src: e.Src, dst: e.Dst, fwd: e.WgtFwd, rev: e.WgtRev}
			if cfg.Unweighted {
				pe.fwd, pe.rev = 1, 1
			}
			byDst = append(byDst, pe)
		}
	}
	bySrc := slices.Clone(byDst)
	order := func(group, peer func(planEdge) int64) func(a, b planEdge) int {
		return func(a, b planEdge) int {
			if c := cmp.Compare(group(a), group(b)); c != 0 {
				return c
			}
			if c := cmp.Compare(peer(a), peer(b)); c != 0 {
				return c
			}
			if c := cmp.Compare(a.fwd, b.fwd); c != 0 {
				return c
			}
			return cmp.Compare(a.rev, b.rev)
		}
	}
	src := func(e planEdge) int64 { return e.src }
	dst := func(e planEdge) int64 { return e.dst }
	slices.SortFunc(byDst, order(dst, src))
	slices.SortFunc(bySrc, order(src, dst))

	type side struct {
		oids    []int64
		off     []int
		peers   []int64
		weights []float64
	}
	layOut := func(sorted []planEdge, group, peer func(planEdge) int64, w func(planEdge) float64) side {
		var s side
		for i, e := range sorted {
			if i == 0 || group(e) != s.oids[len(s.oids)-1] {
				s.oids = append(s.oids, group(e))
				s.off = append(s.off, i)
			}
			s.peers = append(s.peers, peer(e))
			s.weights = append(s.weights, w(e))
		}
		s.off = append(s.off, len(sorted))
		return s
	}
	a := layOut(byDst, dst, src, func(e planEdge) float64 { return e.fwd })
	h := layOut(bySrc, src, dst, func(e planEdge) float64 { return e.rev })
	bindPeers := func(s side, peerOIDs []int64) {
		for i, oid := range s.peers {
			at, _ := slices.BinarySearch(peerOIDs, oid)
			s.peers[i] = int64(at)
		}
	}
	bindPeers(a, h.oids)
	bindPeers(h, a.oids)
	groupSums := func(s side, out, in []float64) {
		for g := range s.oids {
			var sum float64
			for i := s.off[g]; i < s.off[g+1]; i++ {
				sum += in[s.peers[i]] * s.weights[i]
			}
			out[g] = sum
		}
	}
	hubScore := make([]float64, len(h.oids))
	for i := range hubScore {
		hubScore[i] = 1
	}
	authScore := make([]float64, len(a.oids))
	for it := 0; it < cfg.Iterations; it++ {
		groupSums(a, authScore, hubScore)
		normalizeScores(authScore)
		groupSums(h, hubScore, authScore)
		normalizeScores(hubScore)
	}
	return scored(h.oids, hubScore), scored(a.oids, authScore)
}

// multigraph draws a LINK relation meant to break a plan: oids of both
// signs from a small pool, so pages are both sources and destinations;
// repeated (src, dst) pairs at different weights; a few servers, so many
// edges are same-server; weights and relevances from short lists that hold
// zero and repeat exactly. Half the graphs keep each source's edges
// together, as LINK stores them, and half are shuffled.
func multigraph(rng *rand.Rand, n int) ([]linkgraph.Edge, map[int64]float64) {
	pages := 2 + rng.Intn(60)
	oids := make([]int64, pages)
	for i := range oids {
		oids[i] = int64(rng.Uint64())
	}
	levels := []float64{0, 0.05, 0.2, 0.25, 0.5, 0.9, 1}
	rel := make(map[int64]float64, pages)
	for _, oid := range oids {
		rel[oid] = levels[rng.Intn(len(levels))]
	}
	weights := []float64{0, 0.125, 0.2, 0.5, 1, 3}
	servers := 1 + rng.Intn(4)
	edges := make([]linkgraph.Edge, 0, n)
	for len(edges) < n {
		e := linkgraph.Edge{
			Src: oids[rng.Intn(pages)], Dst: oids[rng.Intn(pages)],
			SidSrc: int32(rng.Intn(servers)), SidDst: int32(rng.Intn(servers)),
			WgtFwd: weights[rng.Intn(len(weights))], WgtRev: weights[rng.Intn(len(weights))],
		}
		edges = append(edges, e)
		if rng.Intn(4) == 0 { // the same pair again, at other weights
			e.WgtFwd, e.WgtRev = weights[rng.Intn(len(weights))], weights[rng.Intn(len(weights))]
			edges = append(edges, e)
		}
	}
	if rng.Intn(2) == 0 {
		slices.SortStableFunc(edges, func(a, b linkgraph.Edge) int { return cmp.Compare(a.Src, b.Src) })
	} else {
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	}
	return edges, rel
}

// TestDistillMatchesOldPlanProperty: the one-sort plan returns the same
// pages in the same oid order as the two-sort plan, with scores equal bit
// for bit, on random multigraphs under every filter setting: with and
// without weights and the nepotism filter, with no relevance view, with rho
// at a relevance some pages hold exactly, above every relevance (no edge
// is eligible), and on the empty graph.
func TestDistillMatchesOldPlanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 150; trial++ {
		n := rng.Intn(400)
		if trial == 0 {
			n = 0
		}
		edges, rel := multigraph(rng, n)
		for _, cfg := range []Config{
			{},
			{Iterations: 1 + rng.Intn(6), Rho: 0.2}, // at the 0.2 level, so rel == rho is excluded
			{Unweighted: true, Rho: 0.05},
			{NoNepotismFilter: true, Rho: 0.25},
			{Unweighted: true, NoNepotismFilter: true, Rho: 0.5},
			{Rho: 1},     // at the top level: only an edge above it would count, and none is
			{Rho: 1.5},   // above every relevance
			{Rho: 1e-12}, // below every nonzero relevance
		} {
			for _, view := range []map[int64]float64{rel, nil} {
				name := fmt.Sprintf("trial %d, %d edges, %+v, relevance view %v", trial, len(edges), cfg, view != nil)
				c := cfg
				c.Relevance = view
				hubs, auth, _, err := Distill(Tables{Link: edgeRel(edges)}, c)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				wantHubs, wantAuth := oldPlan(edges, view, c)
				sameBits(t, name+": hubs", hubs, wantHubs)
				sameBits(t, name+": auth", auth, wantAuth)
			}
		}
	}
}

// sameBits fails unless got and want list the same oids in the same order
// with bit-equal scores.
func sameBits(t *testing.T, name string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scored pages, the old plan %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].OID != want[i].OID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: row %d is %d:%v, the old plan's %d:%v", name, i, got[i].OID, got[i].Score, want[i].OID, want[i].Score)
		}
	}
}
