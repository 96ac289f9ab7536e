package distiller

import (
	"cmp"
	"iter"
	"math"
	"slices"
	"time"

	"focus/internal/linkgraph"
)

// Arrangement is LINK arranged for the join and kept across epochs, as a
// dataflow keeps a shared arrangement: every edge that passes the nepotism
// filter, grouped by destination in (dst, src, stored fwd, rev) order. A
// group holds its page and its logged forward weight, if any; an edge its
// source's slot in the source table, which is in oid order, and its stored
// weights. LINK is append-only, so an epoch Extends it by LINK's tail, and
// a Run looks up one relevance per group and nothing per edge.
//
// Run's scores equal Distill's bit for bit when no (src, dst) pair repeats,
// as in the linkgraph store, whose Apply dedups: a repeated pair's terms are
// ordered by their stored forward weights, not by the logged one.
type Arrangement struct {
	cfg  Config
	srcs []Page // the source table
	// groups, ascending oid, one per destination of a held edge or of a
	// logged weight; group g's edges are edges[off[g]:off[g+1]].
	groups []dstGroup
	off    []int32
	edges  []heldEdge
}

// Page is a page and its server.
type Page struct {
	OID int64
	Sid int32
}

type dstGroup struct {
	oid    int64
	fwd    float64 // the last logged forward weight, when logged
	sid    int32
	logged bool
}

type heldEdge struct {
	src      int32 // the source's slot
	fwd, rev float64
}

// planEdge is one LINK row as an Extend reads it.
type planEdge struct {
	src, dst       int64
	fwd, rev       float64
	sidSrc, sidDst int32
}

// sortKey is a position, the key it sorts by and its source's slot.
type sortKey struct {
	key      uint64
	at, slot int32
}

// NewArrangement returns an empty arrangement for runs under cfg; Run takes
// the relevance view, so cfg.Relevance is not read.
func NewArrangement(cfg Config) *Arrangement {
	return &Arrangement{cfg: cfg.withDefaults(), off: []int32{0}}
}

// Extend adds tail's edges, LINK's tail since the last Extend, and then the
// weights logged since, each a page and the forward weight of the edges into
// it (a visit's relevance), a later one superseding an earlier one. Only the
// new edges are sorted, then merged in. On error nothing changes.
func (a *Arrangement) Extend(tail linkgraph.Tail, logged iter.Seq2[int64, float64]) error {
	edges, err := a.read(tail, nil, make([]planEdge, 0, tail.Rows()))
	if err != nil {
		return err
	}
	var fwd []dstGroup
	for dst, w := range logged {
		fwd = append(fwd, dstGroup{oid: dst, fwd: w, logged: true})
	}
	a.insert(edges, fwd)
	return nil
}

// read appends to tail link's edges that pass the nepotism filter and,
// given a relevance view rel, lead to a page above Rho.
func (a *Arrangement) read(link LinkRel, rel map[int64]float64, tail []planEdge) ([]planEdge, error) {
	err := link.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		if a.cfg.keepEdge(e) && (rel == nil || rel[e.Dst] > a.cfg.Rho) {
			tail = append(tail, planEdge{e.Src, e.Dst, e.WgtFwd, e.WgtRev, e.SidSrc, e.SidDst})
		}
		return false, nil
	})
	return tail, err
}

// insert merges tail and the log entries fwd, each a group holding only its
// logged weight, in log order, in; it reorders fwd. tail is ordered by radix
// sorts: its runs of one source's edges (LINK stores a page's out-links
// together) by source, then every edge stably by destination, so only a
// repeated pair is left to order by its weights.
func (a *Arrangement) insert(tail []planEdge, fwd []dstGroup) {
	var runs []sortKey
	for i := range tail {
		if i == 0 || tail[i].src != tail[i-1].src {
			runs = append(runs, sortKey{key: flip(tail[i].src), at: int32(i)})
		}
	}
	runs = radixSort(runs)
	a.addSources(tail, runs)
	keys := make([]sortKey, 0, len(tail))
	for _, r := range runs {
		for i := r.at; int(i) < len(tail) && tail[i].src == tail[r.at].src; i++ {
			keys = append(keys, sortKey{flip(tail[i].dst), i, r.slot})
		}
	}
	keys = radixSort(keys)
	dsts := 0
	for i := range keys {
		if i == 0 || keys[i].key != keys[i-1].key {
			dsts++
		}
		for j := i; j > 0 && keys[j].key == keys[j-1].key && keys[j].slot == keys[j-1].slot &&
			compareEdges(tail[keys[j].at], tail[keys[j-1].at]) < 0; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	slices.SortStableFunc(fwd, func(x, y dstGroup) int { return cmp.Compare(x.oid, y.oid) })
	a.merge(tail, keys, fwd, len(a.groups)+dsts+len(fwd))
}

// flip maps int64 order onto uint64 order, and unflip back.
func flip(x int64) uint64   { return uint64(x) ^ 1<<63 }
func unflip(k uint64) int64 { return int64(k ^ 1<<63) }

// radixSort sorts keys stably by key, a byte at a time from the least
// significant, and returns them sorted, in keys or a new slice. A byte every
// key shares costs no pass.
func radixSort(keys []sortKey) []sortKey {
	tmp := make([]sortKey, len(keys))
	for shift := 0; shift < 64; shift += 8 {
		var at [257]int
		for _, k := range keys {
			at[int(byte(k.key>>shift))+1]++
		}
		if slices.Contains(at[1:], len(keys)) {
			continue
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, k := range keys {
			d := byte(k.key >> shift)
			tmp[at[d]] = k
			at[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// addSources merges the sources of the runs of tail that start at bySrc's
// positions, in source order, into the source table, moves the held edges'
// slots with their sources, and sets each run's slot.
func (a *Arrangement) addSources(tail []planEdge, bySrc []sortKey) {
	merged, moved := make([]Page, 0, len(a.srcs)+len(bySrc)), make([]int32, len(a.srcs))
	for i, j := 0, 0; i < len(a.srcs) || j < len(bySrc); {
		if j == len(bySrc) || (i < len(a.srcs) && a.srcs[i].OID < tail[bySrc[j].at].src) {
			moved[i], merged = int32(len(merged)), append(merged, a.srcs[i])
			i++
			continue
		}
		if e := tail[bySrc[j].at]; len(merged) == 0 || merged[len(merged)-1].OID != e.src {
			p := Page{e.src, e.sidSrc}
			if i < len(a.srcs) && a.srcs[i].OID == e.src {
				p, moved[i] = a.srcs[i], int32(len(merged))
				i++
			}
			merged = append(merged, p)
		}
		bySrc[j].slot = int32(len(merged) - 1)
		j++
	}
	if len(merged) > len(a.srcs) {
		for i := range a.edges {
			a.edges[i].src = moved[a.edges[i].src]
		}
	}
	a.srcs = merged
}

// merge merges tail, in the order of keys order (compareEdges', each key
// its destination), and the log entries fwd, in ascending destination
// order, into the groups, of which there will be at most most. The groups
// neither touches are copied as blocks.
func (a *Arrangement) merge(tail []planEdge, order []sortKey, fwd []dstGroup, most int) {
	groups := make([]dstGroup, 0, most)
	off := make([]int32, 0, most+1)
	edges := make([]heldEdge, 0, len(a.edges)+len(order))
	for i, j, k := 0, 0, 0; ; {
		next := int64(math.MaxInt64)
		if j < len(order) {
			next = unflip(order[j].key)
		}
		if k < len(fwd) {
			next = min(next, fwd[k].oid)
		}
		end := i
		for end < len(a.groups) && a.groups[end].oid < next {
			end++
		}
		groups, edges = append(groups, a.groups[i:end]...), append(edges, a.edges[a.off[i]:a.off[end]]...)
		for shift := int32(len(edges)) - a.off[end]; i < end; i++ {
			off = append(off, a.off[i]+shift)
		}
		if j == len(order) && k == len(fwd) {
			break
		}
		g, held := dstGroup{oid: next}, a.edges[:0]
		if i < len(a.groups) && a.groups[i].oid == next {
			g, held = a.groups[i], a.edges[a.off[i]:a.off[i+1]]
			i++
		}
		j0 := j
		for j < len(order) && order[j].key == flip(next) {
			j++
		}
		if len(held) == 0 && j > j0 {
			g.sid = tail[order[j0].at].sidDst
		}
		for ; k < len(fwd) && fwd[k].oid == next; k++ {
			g.fwd, g.logged = fwd[k].fwd, true
		}
		off = append(off, int32(len(edges)))
		for _, o := range order[j0:j] {
			e := heldEdge{o.slot, tail[o.at].fwd, tail[o.at].rev}
			for ; len(held) > 0 && compareHeld(held[0], e) <= 0; held = held[1:] {
				edges = append(edges, held[0])
			}
			edges = append(edges, e)
		}
		edges, groups = append(edges, held...), append(groups, g)
	}
	a.groups, a.off, a.edges = groups, append(off, int32(len(edges))), edges
}

// compareHeld orders a group's edges by (source, fwd, rev).
func compareHeld(a, b heldEdge) int {
	return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.fwd, b.fwd), cmp.Compare(a.rev, b.rev))
}

// Run computes the configured HITS iterations over the held edges with the
// relevance view rel (nil applies no rho filter) and returns each side's
// scores as Distill does. A group is checked for eligibility, and its
// forward weight resolved, once. Breakdown.Scan covers the eligibility
// pass, the source ranking and the authorities' layout, Sort the counting
// sort, Update the iterations.
func (a *Arrangement) Run(rel map[int64]float64) (hubs, auth []Scored, bd Breakdown) {
	t0 := time.Now()
	// The eligible groups, and at each source of their edges 1, then its
	// hub rank.
	var elig []int32
	var terms int
	rank := make([]int32, len(a.srcs))
	for g, grp := range a.groups {
		held := a.edges[a.off[g]:a.off[g+1]]
		if len(held) == 0 || (rel != nil && !(rel[grp.oid] > a.cfg.Rho)) {
			continue
		}
		elig, terms = append(elig, int32(g)), terms+len(held)
		for _, e := range held {
			rank[e.src] = 1
		}
	}
	var hubOIDs []int64
	for s, used := range rank {
		if used == 1 {
			rank[s], hubOIDs = int32(len(hubOIDs)), append(hubOIDs, a.srcs[s].OID)
		}
	}
	authOrder := edgeOrder{oids: make([]int64, len(elig)), off: make([]int32, len(elig)+1),
		peers: make([]int32, 0, terms), weights: make([]float64, 0, terms)}
	revs := make([]float64, 0, terms)
	for x, g := range elig {
		grp := a.groups[g]
		for _, e := range a.edges[a.off[g]:a.off[g+1]] {
			fwd := e.fwd
			if grp.logged {
				fwd = grp.fwd
			}
			fwd, rev := a.cfg.weights(fwd, e.rev)
			authOrder.peers, authOrder.weights, revs = append(authOrder.peers, rank[e.src]), append(authOrder.weights, fwd), append(revs, rev)
		}
		authOrder.oids[x], authOrder.off[x+1] = grp.oid, int32(len(revs))
	}
	bd.Scan = time.Since(t0)

	t0 = time.Now()
	hubOrder := authOrder.bySource(hubOIDs, revs)
	bd.Sort = time.Since(t0)

	t0 = time.Now()
	hubScore := make([]float64, len(hubOrder.oids))
	for i := range hubScore {
		hubScore[i] = 1 // the standard HITS start vector
	}
	authScore := make([]float64, len(authOrder.oids))
	for it := 0; it < a.cfg.Iterations; it++ {
		authOrder.groupSums(authScore, hubScore)
		normalizeScores(authScore)
		hubOrder.groupSums(hubScore, authScore)
		normalizeScores(hubScore)
	}
	hubs, auth = scored(hubOrder.oids, hubScore), scored(authOrder.oids, authScore)
	bd.Update = time.Since(t0)
	return hubs, auth, bd
}

// Cited returns the pages that a hub of hubs links to on another server,
// each once, in ascending oid order: the §3.4 boost's targets. The held
// edges include every cross-server edge.
func (a *Arrangement) Cited(hubs []Scored) []Page {
	top := make([]bool, len(a.srcs))
	for _, h := range hubs {
		if at, ok := slices.BinarySearchFunc(a.srcs, h.OID, func(p Page, oid int64) int { return cmp.Compare(p.OID, oid) }); ok {
			top[at] = true
		}
	}
	var out []Page
	for g, grp := range a.groups {
		for _, e := range a.edges[a.off[g]:a.off[g+1]] {
			if top[e.src] && a.srcs[e.src].Sid != grp.sid {
				out = append(out, Page{grp.oid, grp.sid})
				break
			}
		}
	}
	return out
}
