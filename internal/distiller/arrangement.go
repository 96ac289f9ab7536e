package distiller

import (
	"cmp"
	"slices"
	"time"

	"focus/internal/linkgraph"
)

// Arrangement is LINK arranged for the join and kept across epochs, as a
// dataflow keeps a shared arrangement: every edge that passes the nepotism
// filter, grouped by destination in (dst, src, stored fwd, rev) order. A
// group holds its page and its latest Change; an edge its source's slot in
// the source table, which is in oid order, and its stored weights. LINK is
// append-only, so an epoch Extends it by LINK's tail and the changes since,
// and a Run reads only what it holds.
//
// Its arrays are kept: an Extend merges the tail in, in place, and they and
// the scratch Extend, Run, Rank and Cited reslice are reallocated only when
// full (see fit), so an epoch whose tail fits allocates only the two sides
// Run returns. A one-shot arrangement (Distill's) sizes everything exactly.
//
// Run's scores equal Distill's bit for bit when no (src, dst) pair repeats,
// as in the linkgraph store, whose Apply dedups: a repeated pair's terms are
// ordered by their stored forward weights, not by the relevance.
type Arrangement struct {
	cfg  Config
	span int    // epochs the last Extend's tail spans; 0 in a one-shot arrangement
	srcs []Page // the source table
	// groups, ascending oid, one per destination of a held edge or page of
	// a change; group g's edges are edges[off[g]:off[g+1]].
	groups []dstGroup
	off    []int32
	edges  []heldEdge

	// Scratch of Extend, insert (a changed key names changes[slot][at]),
	// addSources (the other source table), Run's layout, Rank and Cited.
	plan                     []planEdge
	changed, runs, keys, tmp []sortKey
	spareSrcs, cited         []Page
	moved, rank, next        []int32
	revs, hubs, auths        []float64
	authOrder, hubOrder      edgeOrder
	ranked                   []Scored
	top                      []bool
}

// Page is a page and its server.
type Page struct {
	OID int64
	Sid int32
}

// Change is a page's relevance as a write of its CRAWL row left it. A
// visited page's is the forward weight of every edge into it (EF[u,v] =
// relevance(v)); an unvisited one's edges keep the weight LINK stored.
type Change struct {
	OID     int64
	Rel     float64
	Visited bool
}

type dstGroup struct {
	oid     int64
	rel     float64
	sid     int32
	visited bool
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

// NewArrangement returns an empty arrangement for runs under cfg; relevance
// comes as Extend's changes, so cfg.Relevance is not read.
func NewArrangement(cfg Config) *Arrangement {
	return &Arrangement{cfg: cfg.withDefaults(), off: []int32{0}}
}

// Extend adds tail's edges, LINK's tail since the last Extend, and then the
// changes since, a later one (or one in a later log) superseding an earlier
// one; a page with no group gets one. The tail, of epochs epochs, is sorted
// and merged in; on error nothing is added.
func (a *Arrangement) Extend(tail linkgraph.Tail, changes [][]Change, epochs int) error {
	a.span = max(epochs, 1)
	rows := int(tail.Rows())
	plan, err := a.read(tail, nil, fit(a, a.plan, rows, 0)[:0])
	if err != nil {
		return err
	}
	a.plan = plan
	a.insert(plan, changes)
	if a.span > 1 { // no epoch's tail needs this scratch
		a.plan, a.changed, a.runs, a.keys, a.tmp = nil, nil, nil, nil, nil
	}
	return nil
}

// Seed adds changes as Extend does, before any edge and reading no LINK
// page: a crawl's first cut seeds its arrangement with every page's
// relevance this way, so no epoch sorts the whole crawl's pages.
func (a *Arrangement) Seed(changes [][]Change) { a.insert(nil, changes) }

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

// insert merges tail and changes in. tail is ordered by radix sorts: its
// runs of one source's edges (LINK stores a page's out-links together) by
// source, then every edge stably by destination, so only a repeated pair is
// left to order by its weights. The changes are sorted stably by page, each
// key naming its change by log and position, so a later one still
// supersedes an earlier one.
func (a *Arrangement) insert(tail []planEdge, changes [][]Change) {
	changed := a.changed[:0]
	for l, log := range changes {
		for at, ch := range log {
			changed = append(changed, sortKey{flip(ch.OID), int32(at), int32(l)})
		}
	}
	runs := a.runs[:0]
	for i := range tail {
		if i == 0 || tail[i].src != tail[i-1].src {
			runs = append(runs, sortKey{key: flip(tail[i].src), at: int32(i)})
		}
	}
	a.tmp = fit(a, a.tmp, max(len(tail), len(changed)), 0)
	radixSort(runs, a.tmp)
	a.addSources(tail, runs)
	keys := fit(a, a.keys, len(tail), 0)[:0]
	for _, r := range runs {
		for i := r.at; int(i) < len(tail) && tail[i].src == tail[r.at].src; i++ {
			keys = append(keys, sortKey{flip(tail[i].dst), i, r.slot})
		}
	}
	radixSort(keys, a.tmp)
	for i := range keys {
		for j := i; j > 0 && keys[j].key == keys[j-1].key && keys[j].slot == keys[j-1].slot &&
			compareEdges(tail[keys[j].at], tail[keys[j-1].at]) < 0; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	radixSort(changed, a.tmp)
	// The groups there will be: the held ones and a new one for each page
	// the tail or the changes name that has none.
	most, g, i, j := len(a.groups), 0, 0, 0
	for i < len(keys) || j < len(changed) {
		k := ^uint64(0)
		if i < len(keys) {
			k = keys[i].key
		}
		if j < len(changed) {
			k = min(k, changed[j].key)
		}
		for ; g < len(a.groups) && flip(a.groups[g].oid) < k; g++ {
		}
		if g == len(a.groups) || flip(a.groups[g].oid) != k {
			most++
		}
		for ; i < len(keys) && keys[i].key == k; i++ {
		}
		for ; j < len(changed) && changed[j].key == k; j++ {
		}
	}
	a.runs, a.keys, a.changed = runs, keys, changed
	a.merge(tail, keys, changes, most)
}

// fit returns s resliced to length n, its contents stale. Only when short is
// it reallocated: to n in a one-shot arrangement, and in a kept one with room
// for two epochs' shares of added more (a resumed crawl's first Extend reads
// all of LINK, keeping none of its scratch) and a quarter more.
func fit[T any](a *Arrangement, s []T, n, added int) []T {
	if cap(s) >= n {
		return s[:n]
	} else if a.span == 0 {
		return make([]T, n)
	}
	return make([]T, n, n+2*added/a.span+n/4)
}

// grown is fit for Run's layout: s, as long as the last Run needed, grows
// by the epoch's growth.
func grown[T any](a *Arrangement, s []T, n int) []T { return fit(a, s, n, n-len(s)) }

// flip maps int64 order onto uint64 order, and unflip back.
func flip(x int64) uint64   { return uint64(x) ^ 1<<63 }
func unflip(k uint64) int64 { return int64(k ^ 1<<63) }

// radixSort sorts keys stably by key, through tmp, which is at least as
// long: 11 bits at a time from the least significant, all the digits counted
// in one pass. A digit every key shares costs no pass.
func radixSort(keys, tmp []sortKey) {
	const bits, digits, mask = 11, 6, 1<<11 - 1
	var counts [digits][1 << bits]int32
	for _, k := range keys {
		for d := range digits {
			counts[d][k.key>>(d*bits)&mask]++
		}
	}
	src, dst := keys, tmp[:len(keys)]
	for d := range digits {
		at, shift := &counts[d], d*bits
		if len(keys) == 0 || int(at[keys[0].key>>shift&mask]) == len(keys) {
			continue
		}
		var sum int32
		for b, n := range at {
			at[b], sum = sum, sum+n
		}
		for _, k := range src {
			b := k.key >> shift & mask
			dst[at[b]] = k
			at[b]++
		}
		src, dst = dst, src
	}
	if len(keys) > 0 && &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// addSources merges the sources of the runs of tail that start at bySrc's
// positions, in source order, into the source table, moves the held edges'
// slots with their sources, and sets each run's slot. The merged table is
// written into the other of two kept tables.
func (a *Arrangement) addSources(tail []planEdge, bySrc []sortKey) {
	n := len(a.srcs) + len(bySrc)
	merged := fit(a, a.spareSrcs, n, len(bySrc))[:0]
	moved := fit(a, a.moved, len(a.srcs), 0)
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
	a.srcs, a.spareSrcs, a.moved = merged, a.srcs, moved
}

// merge merges tail, in the order of keys order (compareEdges', each key
// its destination), and the changes, in a.changed's page order, into the
// groups, of which there will be at most most. It works in place, from the
// last group back, so a held group or edge only moves toward the end, past
// what is still to be read; the groups neither touches move as blocks.
func (a *Arrangement) merge(tail []planEdge, order []sortKey, changes [][]Change, most int) {
	changed := a.changed
	ne := len(a.edges) + len(order)
	groups, off := fit(a, a.groups, most, most-len(a.groups)), fit(a, a.off, most+1, most-len(a.groups))
	edges := fit(a, a.edges, ne, len(order))
	// Old group i-1 and its edges, ending at hi, are next to move; new group
	// w-1 and its edges, ending at we, next to be written.
	i, j, k, w := len(a.groups), len(order), len(changed), most
	hi, we := int32(len(a.edges)), int32(ne)
	off[w] = we
	for {
		next, more := uint64(0), j > 0 || k > 0 // the largest destination left
		if j > 0 {
			next = order[j-1].key
		}
		if k > 0 && changed[k-1].key >= next {
			next = changed[k-1].key
		}
		start := i
		for start > 0 && (!more || flip(a.groups[start-1].oid) > next) {
			start--
		}
		if start < i {
			lo, shift := a.off[start], we-hi
			copy(edges[lo+shift:we], a.edges[lo:hi])
			copy(groups[w-(i-start):w], a.groups[start:i])
			for x := i - 1; x >= start; x-- {
				off[x+w-i] = a.off[x] + shift
			}
			w, i, hi, we = w-(i-start), start, lo, lo+shift
		}
		if !more {
			break
		}
		g, lo := dstGroup{oid: unflip(next)}, hi
		if i > 0 && flip(a.groups[i-1].oid) == next {
			g, lo = a.groups[i-1], a.off[i-1]
			i--
		}
		j0 := j
		for j0 > 0 && order[j0-1].key == next {
			j0--
		}
		if lo == hi && j > j0 {
			g.sid = tail[order[j0].at].sidDst
		}
		if k > 0 && changed[k-1].key == next { // the latest change
			ch := changes[changed[k-1].slot][changed[k-1].at]
			g.rel, g.visited = ch.Rel, ch.Visited
		}
		for k > 0 && changed[k-1].key == next {
			k--
		}
		for ; j > j0; j-- {
			o := order[j-1]
			e := heldEdge{o.slot, tail[o.at].fwd, tail[o.at].rev}
			for ; hi > lo && compareHeld(a.edges[hi-1], e) > 0; hi-- {
				we--
				edges[we] = a.edges[hi-1]
			}
			we--
			edges[we] = e
		}
		we -= hi - lo
		copy(edges[we:], a.edges[lo:hi])
		w, hi = w-1, lo
		groups[w], off[w] = g, we
	}
	// Drop the positions most counted for destinations a group already held.
	a.groups, a.off, a.edges = groups[:copy(groups, groups[w:])], off[:copy(off, off[w:])], edges
}

// compareHeld orders a group's edges by (source, fwd, rev).
func compareHeld(a, b heldEdge) int {
	return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.fwd, b.fwd), cmp.Compare(a.rev, b.rev))
}

// Run computes the configured HITS iterations over the edges of the groups
// above Rho and returns each side's scores as Distill does, in new slices;
// its layout is the arrangement's scratch (see grown). An edge into a
// visited page weighs its relevance forward, any other its stored weight.
// Breakdown.Scan covers the two passes over the groups, the source ranking
// and the authorities' layout, Sort the counting sort, Update the
// iterations.
func (a *Arrangement) Run() (hubs, auth []Scored, bd Breakdown) {
	t0 := time.Now()
	ao, ho := &a.authOrder, &a.hubOrder
	// The eligible groups, their terms and their sources, and at each
	// source 1, then its hub rank.
	auths, terms, hubsN := 0, 0, 0
	rank := grown(a, a.rank, len(a.srcs))
	clear(rank)
	for g, grp := range a.groups {
		if held := a.edges[a.off[g]:a.off[g+1]]; grp.rel > a.cfg.Rho {
			auths, terms = auths+min(len(held), 1), terms+len(held)
			for _, e := range held {
				hubsN += int(1 - rank[e.src])
				rank[e.src] = 1
			}
		}
	}
	ho.oids = grown(a, ho.oids, hubsN)[:0]
	for src, used := range rank {
		if used == 1 {
			rank[src], ho.oids = int32(len(ho.oids)), append(ho.oids, a.srcs[src].OID)
		}
	}
	ao.oids, ao.off = grown(a, ao.oids, auths)[:0], append(grown(a, ao.off, auths+1)[:0], 0)
	ao.peers, ao.weights = grown(a, ao.peers, terms)[:0], grown(a, ao.weights, terms)[:0]
	revs := grown(a, a.revs, terms)[:0]
	for g, grp := range a.groups {
		held := a.edges[a.off[g]:a.off[g+1]]
		if len(held) == 0 || !(grp.rel > a.cfg.Rho) {
			continue
		}
		for _, e := range held {
			fwd := e.fwd
			if grp.visited {
				fwd = grp.rel
			}
			fwd, rev := a.cfg.weights(fwd, e.rev)
			ao.peers, ao.weights, revs = append(ao.peers, rank[e.src]), append(ao.weights, fwd), append(revs, rev)
		}
		ao.oids, ao.off = append(ao.oids, grp.oid), append(ao.off, int32(len(revs)))
	}
	a.rank, a.revs = rank, revs
	bd.Scan = time.Since(t0)

	t0 = time.Now()
	ho.off, a.next = grown(a, ho.off, hubsN+1), grown(a, a.next, hubsN+1)
	ho.peers, ho.weights = grown(a, ho.peers, terms), grown(a, ho.weights, terms)
	ao.bySource(ho, revs, a.next)
	bd.Sort = time.Since(t0)

	t0 = time.Now()
	a.hubs, a.auths = grown(a, a.hubs, hubsN), grown(a, a.auths, auths)
	for i := range a.hubs {
		a.hubs[i] = 1 // the standard HITS start vector
	}
	for it := 0; it < a.cfg.Iterations; it++ {
		ao.groupSums(a.auths, a.hubs)
		normalizeScores(a.auths)
		ho.groupSums(a.hubs, a.auths)
		normalizeScores(a.hubs)
	}
	hubs, auth = scored(ho.oids, a.hubs), scored(ao.oids, a.auths)
	bd.Update = time.Since(t0)
	return hubs, auth, bd
}

// Rank is the package's Rank through the arrangement's scratch.
func (a *Arrangement) Rank(s []Scored) Ranking {
	n := len(s)
	a.keys, a.tmp, a.ranked = fit(a, a.keys, n, 0), fit(a, a.tmp, n, 0), fit(a, a.ranked, n, 0)
	return rank(s, a.keys, a.tmp, a.ranked)
}

// Cited returns the pages that a hub of hubs links to on another server,
// each once, in ascending oid order: the §3.4 boost's targets. The held
// edges include every cross-server edge. The slice is the arrangement's,
// valid until the next Cited.
func (a *Arrangement) Cited(hubs []Scored) []Page {
	top := fit(a, a.top, len(a.srcs), 0)
	clear(top)
	for _, h := range hubs {
		if at, ok := slices.BinarySearchFunc(a.srcs, h.OID, func(p Page, oid int64) int { return cmp.Compare(p.OID, oid) }); ok {
			top[at] = true
		}
	}
	out := a.cited[:0]
	for g, grp := range a.groups {
		for _, e := range a.edges[a.off[g]:a.off[g+1]] {
			if top[e.src] && a.srcs[e.src].Sid != grp.sid {
				out = append(out, Page{grp.oid, grp.sid})
				break
			}
		}
	}
	a.top, a.cited = top, out
	return out
}
