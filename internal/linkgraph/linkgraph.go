// Package linkgraph is the striped store of the LINK relation (Figure 1 of
// the paper). The first reproduction kept LINK as one table behind the
// crawler's global mutex, so every worker serialized on it once per outlink
// — the hot-path bottleneck after the frontier was sharded. Here the
// relation is partitioned by hash(oid_src) into Stripes physical tables
// (LINK#0 … LINK#n-1), each a bare heap with its own in-memory in-edge and
// out-edge directories and its own mutex; edges of one source page always
// land in one stripe, so a page's whole out-link batch commits under a single
// stripe lock.
//
// Ingest is batched: a worker accumulates a fetched page's out-edges in a
// Batch without holding any lock, then Apply groups the batch by stripe and
// walks the stripes in ascending id order, locking each once. Within a
// stripe, each edge is deduplicated ((src, dst) is the edge identity) against
// the batch and against the source's stored edges, found through the
// out-edge directory, before insertion, so the same edge arriving in two
// workers' batches is stored exactly once. With Stripes=1 the store is the
// single LINK table of the pre-stripe crawler, bit for bit: one heap, the
// same insertion order.
//
// Incoming-weight sweeps (UpdateIncomingFwd) are dst-routed: a sharded
// dst -> stripe-presence registry, maintained at ingest under the stripe
// lock, names the stripes holding edges into a target, and a sweep locks
// only those and walks their in-edge directories — O(in-degree stripes)
// instead of O(Stripes) per visit. The in-edge directory maps oid_dst to the
// RIDs of the stripe's rows into it, and the out-edge directory oid_src to
// the RIDs of the rows out of it. They are the stripe's only access paths
// besides a heap scan, so they live in memory rather than as B+trees every
// ingested edge would pay a random insert into. See registry.go for the
// registry and the
// registration-ordering argument that keeps routed sweeps exact against
// concurrent ingest.
//
// # Lock ordering
//
// Stripe mutexes rank below every crawler lock: a goroutine may acquire a
// frontier-shard mutex or the crawler's global mutex while holding a stripe
// mutex (Apply's weight callback does exactly that), but never the reverse.
// Registry shard mutexes sit outside the stripe order as pure leaf locks:
// applyLocked registers destinations while holding its stripe lock, sweeps
// read masks holding nothing, and nothing is ever acquired while a registry
// lock is held (sweeps copy the mask out first) — so no cycle can involve
// them.
// Multi-stripe operations (LockAll, Apply, UpdateIncomingFwd, the snapshot
// iterators) take stripe locks in ascending id order, one at a time unless
// a consistent cross-stripe view is required. The crawler's stop-the-world
// barrier therefore begins with LockAll before it touches shard locks; see
// DESIGN.md and the internal/relstore package doc for the full contract.
package linkgraph

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"focus/internal/relstore"
)

// Column positions of the LINK relation.
const (
	ColSrc = iota
	ColSidSrc
	ColDst
	ColSidDst
	ColWgtFwd
	ColWgtRev
)

// Schema is the LINK relation of Figure 1.
func Schema() *relstore.Schema {
	return relstore.NewSchema(
		relstore.Column{Name: "oid_src", Kind: relstore.KInt64},
		relstore.Column{Name: "sid_src", Kind: relstore.KInt32},
		relstore.Column{Name: "oid_dst", Kind: relstore.KInt64},
		relstore.Column{Name: "sid_dst", Kind: relstore.KInt32},
		relstore.Column{Name: "wgt_fwd", Kind: relstore.KFloat64},
		relstore.Column{Name: "wgt_rev", Kind: relstore.KFloat64},
	)
}

// Edge is one directed hyperlink with the paper's EF/EB weights.
type Edge struct {
	Src    int64
	SidSrc int32
	Dst    int64
	SidDst int32
	WgtFwd float64
	WgtRev float64
}

// EdgeOf decodes a LINK tuple back into an Edge.
func EdgeOf(t relstore.Tuple) Edge {
	return Edge{
		Src:    t[ColSrc].Int(),
		SidSrc: int32(t[ColSidSrc].Int()),
		Dst:    t[ColDst].Int(),
		SidDst: int32(t[ColSidDst].Int()),
		WgtFwd: t[ColWgtFwd].Float(),
		WgtRev: t[ColWgtRev].Float(),
	}
}

// Batch accumulates out-edges lock-free; one worker owns one batch at a
// time (typically the out-links of the page it just classified).
type Batch struct {
	edges []Edge
}

// Add appends an edge, keeping arrival order.
func (b *Batch) Add(e Edge) { b.edges = append(b.edges, e) }

// Len is the number of accumulated edges.
func (b *Batch) Len() int { return len(b.edges) }

// Edges exposes the accumulated edges in arrival order.
func (b *Batch) Edges() []Edge { return b.edges }

// Reset empties the batch for reuse.
func (b *Batch) Reset() { b.edges = b.edges[:0] }

// stripe is one partition: its own table, in-edge and out-edge directories,
// and lock.
type stripe struct {
	id int
	// The bottom of the lock tower: frontier-shard and global locks may be
	// acquired while a stripe mutex is held (Apply's weight callback does
	// exactly that), never the reverse.
	//focuslint:lock rank=stripe order=10
	mu  sync.Mutex
	tab *relstore.Table
	// dir holds the in-edge and out-edge directories, guarded by mu: filled
	// in applyLocked from the RIDs InsertBatch assigns, in the same critical
	// section. Its in-edge chains are walked by updateIncomingFwd, its
	// out-edge chains by ingest's dedup, Contains and ScanBySrc. LINK rows are
	// never moved or deleted, so an entry stays valid for the life of the
	// store.
	dir edgeDirectory
	// ord is skipDuplicates' sort scratch, guarded by mu.
	ord []int32

	// batches recycles the row batches Apply fills for this stripe's table
	// (relstore.RowBatch keeps its arena across Reset). A batch is taken
	// before the stripe lock, because it is filled outside it, so the stripe
	// cannot simply own one.
	batches sync.Pool

	// pend holds snapshots registered against this stripe whose tuple run
	// has not been copied out yet. Every snapshot here was registered since
	// the stripe's last mutation, so they all see the same state and one
	// copy serves them all; mutators materialize (and clear) the list
	// before their first write. Guarded by mu.
	pend []*Snapshot
}

func newStripe(id int, tab *relstore.Table) *stripe {
	return &stripe{id: id, tab: tab, dir: edgeDirectory{in: map[int64]int32{}, out: map[int64]int32{}}}
}

// edgeDirectory is a stripe's in-edge and out-edge directories over one entry
// per row: in maps an oid_dst, and out an oid_src, to the entry of the newest
// row carrying it, and each entry links to the previous row into the same
// destination and to the previous row out of the same source. A destination's
// rows and a source's rows each form a chain through one slice, newest
// first, so the directory holds no pointer and the garbage collector never
// marks it entry by entry (a slice of RIDs per oid costs one object per oid),
// and the two directions share each row's RID.
type edgeDirectory struct {
	in, out map[int64]int32 // oid -> index in rows of its newest row
	rows    []edgeRow
}

type edgeRow struct {
	rid relstore.RID
	// The previous row's entry in the same in-edge and out-edge chain; -1
	// ends a chain.
	nextIn, nextOut int32
}

// add records the row at rid, an edge src -> dst.
func (d *edgeDirectory) add(src, dst int64, rid relstore.RID) {
	at := int32(len(d.rows))
	d.rows = append(d.rows, edgeRow{rid: rid, nextIn: chainHead(d.in, dst), nextOut: chainHead(d.out, src)})
	d.in[dst], d.out[src] = at, at
}

// chainHead is the entry of oid's newest row in head, or -1.
func chainHead(head map[int64]int32, oid int64) int32 {
	if at, ok := head[oid]; ok {
		return at
	}
	return -1
}

// materializePending copies the stripe's current tuples into every snapshot
// still pending on it — one shared copy, since all pending snapshots were
// taken since the last mutation — and clears the list. The caller must hold
// st.mu. Mutators call it before their first write; snapshot readers call
// it (through Snapshot.run) on first access to a stripe no write has
// reached. O(1) when nothing is pending, so writers pay the copy at most
// once per snapshot epoch.
//
//focuslint:lock requires=stripe
func (st *stripe) materializePending() error {
	if len(st.pend) == 0 {
		return nil
	}
	run := make([]relstore.Tuple, 0, st.tab.Rows())
	err := st.tab.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		run = append(run, t)
		return false, nil
	})
	if err != nil {
		return err
	}
	for _, sn := range st.pend {
		sn.runs[st.id].Store(&run)
	}
	st.pend = nil
	return nil
}

// Store is the striped LINK relation.
type Store struct {
	db      *relstore.DB
	stripes []*stripe

	// reg is the dst -> stripe-presence registry that routes incoming-weight
	// sweeps to only the stripes storing edges into the target; see
	// registry.go and UpdateIncomingFwd.
	reg *dstRegistry

	// sweeps counts UpdateIncomingFwd/UpdateIncomingFwdLocked calls;
	// sweepProbes counts the stripes those sweeps locked and probed. Their
	// ratio is the per-visit sweep cost the routing flattens.
	sweeps      atomic.Int64
	sweepProbes atomic.Int64
}

// New creates the stripe tables LINK#0 … LINK#n-1 in db, each a bare heap
// with empty in-edge and out-edge directories. n <= 0 means one stripe.
func New(db *relstore.DB, n int) (*Store, error) {
	if n <= 0 {
		n = 1
	}
	s := &Store{db: db, reg: newDstRegistry(n)}
	for i := 0; i < n; i++ {
		tab, err := db.CreateTable(fmt.Sprintf("LINK#%d", i), Schema())
		if err != nil {
			return nil, err
		}
		s.stripes = append(s.stripes, newStripe(i, tab))
	}
	return s, nil
}

// NumStripes returns the stripe count.
func (s *Store) NumStripes() int { return len(s.stripes) }

// stripeIndex is the partition function: a pure function of the source oid
// and the stripe count, so an edge's location is stable for the life of the
// store and a source's out-edges lie in exactly one stripe. Every path — ingest,
// dedup, point lookups, prefix scans — must route through it.
func (s *Store) stripeIndex(src int64) int {
	return int(uint64(src) % uint64(len(s.stripes)))
}

// stripeFor maps a source oid to its home stripe.
func (s *Store) stripeFor(src int64) *stripe {
	return s.stripes[s.stripeIndex(src)]
}

// LockAll acquires every stripe mutex in ascending id order — the link
// store's part of the crawler's stop-the-world barrier. Stripe locks rank
// below shard and global locks, so LockAll must come first in the barrier.
//
//focuslint:lock sequence=stripe* exit=held
func (s *Store) LockAll() {
	for _, st := range s.stripes {
		st.mu.Lock()
	}
}

// UnlockAll releases the stripe mutexes in reverse order.
//
//focuslint:lock releases=stripe*
func (s *Store) UnlockAll() {
	for i := len(s.stripes) - 1; i >= 0; i-- {
		s.stripes[i].mu.Unlock()
	}
}

// WeightFunc finalizes an edge's forward weight at ingest time. It is
// called under the edge's stripe lock, immediately before insertion; the
// crawler's implementation locks the target's frontier shard and substitutes
// the target's true relevance if it has already been classified. Running
// under the stripe lock is what makes the weight immune to a concurrent
// visit of the target: the visitor marks its CRAWL row visited before
// rewriting incoming weights (UpdateIncomingFwd), so an ingester either
// observes the visited row here, or inserts early enough that the rewrite
// sweeps its edge — the dst registry is updated before this callback runs
// (see applyLocked), so a routed rewrite always knows about the stripe such
// an early insert lands in.
type WeightFunc func(Edge) (float64, error)

// Apply ingests a batch in one pass: edges are grouped by stripe, stripes
// are visited in ascending id order and locked once each, and within a
// stripe edges apply in batch arrival order (so with one stripe the heap
// order is exactly the arrival order). Each edge is deduplicated against the
// batch and the stored edges; duplicates — within the batch or against edges
// another worker already committed — are skipped. weight, if non-nil,
// finalizes WgtFwd per inserted edge. Returns inserted flags aligned with
// b.Edges(); a false entry means the edge was a duplicate.
//
// A stripe's share of the batch is applied as three set operations, not edge
// by edge: its rows are encoded before the stripe lock is taken (prepare);
// under the lock the duplicates are marked (skipDuplicates), the weight
// callbacks run, and one relstore.Table.InsertBatch commits the survivors to
// the heap in arrival order, whose RIDs then enter the in-edge and out-edge
// directories (applyLocked).
func (s *Store) Apply(b *Batch, weight WeightFunc) ([]bool, error) {
	inserted := make([]bool, len(b.edges))
	if len(b.edges) == 0 {
		return inserted, nil
	}
	// Batch positions grouped by stripe, arrival order within each (a
	// counting sort): once filled, stripe si's positions end at ends[si] and
	// begin where the stripe before it ends.
	ends := make([]int, len(s.stripes))
	for _, e := range b.edges {
		ends[s.stripeIndex(e.Src)]++
	}
	for si, at := 0, 0; si < len(ends); si++ {
		ends[si], at = at, at+ends[si]
	}
	idxs := make([]int, len(b.edges))
	for i, e := range b.edges {
		si := s.stripeIndex(e.Src)
		idxs[ends[si]] = i
		ends[si]++
	}
	for si, st := range s.stripes {
		lo := 0
		if si > 0 {
			lo = ends[si-1]
		}
		group := idxs[lo:ends[si]]
		if len(group) == 0 {
			continue
		}
		rows, err := st.prepare(group, b.edges)
		if err == nil {
			err = st.applyLocked(rows, group, b.edges, weight, inserted, s.reg)
		}
		st.batches.Put(rows)
		if err != nil {
			return nil, err
		}
	}
	return inserted, nil
}

// prepare encodes the edges at positions idxs — all of this stripe — as rows
// of a batch for the stripe's table, row r being edges[idxs[r]]. It reads
// nothing of the stripe's stored state and runs without the stripe lock.
func (st *stripe) prepare(idxs []int, edges []Edge) (*relstore.RowBatch, error) {
	rows, _ := st.batches.Get().(*relstore.RowBatch)
	if rows == nil {
		rows = st.tab.NewBatch()
	}
	rows.Reset()
	for _, i := range idxs {
		e := edges[i]
		err := rows.AddRecord(relstore.Tuple{
			relstore.I64(e.Src), relstore.I32(e.SidSrc), relstore.I64(e.Dst), relstore.I32(e.SidDst),
			relstore.F64(e.WgtFwd), relstore.F64(e.WgtRev),
		})
		if err != nil {
			return rows, err
		}
	}
	return rows, nil
}

func (st *stripe) applyLocked(rows *relstore.RowBatch, idxs []int, edges []Edge, weight WeightFunc, inserted []bool, reg *dstRegistry) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Register every destination in the dst registry BEFORE running any
	// weight callback. The ordering is what keeps routed sweeps exact: if
	// this batch's callback reads a target's row before its visitor marks it
	// visited (and so inserts a stale radius-1 weight), the registration
	// here preceded that read, and the visitor's sweep — whose registry
	// lookup happens after the visited mark — is guaranteed to see this
	// stripe's bit, block on our stripe lock, and rewrite the edge once we
	// commit. Registering a destination whose edge then dedups away is
	// harmless: the bit was already set by the stored copy (same src, same
	// stripe), so masks never name a stripe without edges into the dst.
	for _, i := range idxs {
		reg.add(edges[i].Dst, st.id)
	}
	if err := st.skipDuplicates(rows, idxs, edges); err != nil {
		return err
	}
	// The weight callbacks, in arrival order, each for an edge that will be
	// inserted; the final weight is written into the row's encoded record.
	live := 0
	for r, i := range idxs {
		if rows.Skipped(r) {
			continue
		}
		live++
		if weight != nil {
			w, err := weight(edges[i])
			if err != nil {
				return err
			}
			if err := rows.SetCol(r, ColWgtFwd, relstore.F64(w)); err != nil {
				return err
			}
		}
	}
	if live == 0 {
		return nil
	}
	// Copy-on-write: pending snapshots capture the pre-insert image.
	if err := st.materializePending(); err != nil {
		return err
	}
	if err := st.tab.InsertBatch(rows); err != nil {
		return err
	}
	for r, i := range idxs {
		if !rows.Skipped(r) {
			inserted[i] = true
			st.dir.add(edges[i].Src, edges[i].Dst, rows.RID(r))
		}
	}
	return nil
}

// skipDuplicates marks the rows whose edge must not be inserted: one that
// repeats an earlier row of the group, or one already stored. The group's
// rows are sorted by (src, dst) in the stripe's scratch, equal edges in
// arrival order, so a repeat lies next to its first arrival, which is the one
// kept. A source's stored edges are read only if the out-edge directory has
// any: a freshly visited page has none, so its links cost no read.
//
//focuslint:lock requires=stripe
func (st *stripe) skipDuplicates(rows *relstore.RowBatch, idxs []int, edges []Edge) error {
	edge := func(r int32) *Edge { return &edges[idxs[r]] }
	ord := st.ord[:0]
	for r := range idxs {
		ord = append(ord, int32(r))
	}
	slices.SortFunc(ord, func(x, y int32) int {
		a, b := edge(x), edge(y)
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	st.ord = ord
	for lo, hi := 0, 0; lo < len(ord); lo = hi {
		src := edge(ord[lo]).Src
		for hi = lo + 1; hi < len(ord) && edge(ord[hi]).Src == src; hi++ {
			if edge(ord[hi]).Dst == edge(ord[hi-1]).Dst {
				rows.Skip(int(ord[hi]))
			}
		}
		run := ord[lo:hi]
		err := st.walkOut(src, func(rid relstore.RID) error {
			dst, err := st.dstOf(rid)
			if err != nil {
				return err
			}
			at, _ := slices.BinarySearchFunc(run, dst, func(r int32, dst int64) int { return cmp.Compare(edge(r).Dst, dst) })
			for ; at < len(run) && edge(run[at]).Dst == dst; at++ {
				rows.Skip(int(run[at]))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// walkOut calls fn with the RID of each of src's stored out-edges, newest
// first.
//
//focuslint:lock requires=stripe
func (st *stripe) walkOut(src int64, fn func(rid relstore.RID) error) error {
	for at := chainHead(st.dir.out, src); at >= 0; at = st.dir.rows[at].nextOut {
		if err := fn(st.dir.rows[at].rid); err != nil {
			return err
		}
	}
	return nil
}

// dstOf reads the oid_dst of the row at rid where it lies; st.mu must be
// held.
func (st *stripe) dstOf(rid relstore.RID) (int64, error) {
	var v [1]relstore.Value
	err := st.tab.ReadCols(rid, []int{ColDst}, v[:])
	return v[0].Int(), err
}

// Contains reports whether the edge (src, dst) is stored.
func (s *Store) Contains(src, dst int64) (bool, error) {
	st := s.stripeFor(src)
	st.mu.Lock()
	defer st.mu.Unlock()
	found := false
	err := st.walkOut(src, func(rid relstore.RID) error {
		stored, err := st.dstOf(rid)
		found = found || stored == dst
		return err
	})
	return found && err == nil, err
}

// Rows returns the total stored edge count.
func (s *Store) Rows() int64 {
	var n int64
	for _, st := range s.stripes {
		st.mu.Lock()
		n += st.tab.Rows()
		st.mu.Unlock()
	}
	return n
}

// ScanBySrc visits the stored out-edges of src in ascending dst order,
// locking the source's stripe for the duration.
func (s *Store) ScanBySrc(src int64, fn func(Edge) (bool, error)) error {
	st := s.stripeFor(src)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.scanBySrc(src, fn)
}

// ScanBySrcLocked is ScanBySrc for callers already holding the stripe locks
// (the crawler's barrier).
//
//focuslint:lock requires=stripe*
func (s *Store) ScanBySrcLocked(src int64, fn func(Edge) (bool, error)) error {
	return s.stripeFor(src).scanBySrc(src, fn)
}

//focuslint:lock requires=stripe
func (st *stripe) scanBySrc(src int64, fn func(Edge) (bool, error)) error {
	var out []Edge
	err := st.walkOut(src, func(rid relstore.RID) error {
		t, err := st.tab.Get(rid)
		if err == nil {
			out = append(out, EdgeOf(t))
		}
		return err
	})
	if err != nil {
		return err
	}
	slices.SortFunc(out, func(a, b Edge) int { return cmp.Compare(a.Dst, b.Dst) })
	for _, e := range out {
		if stop, err := fn(e); stop || err != nil {
			return err
		}
	}
	return nil
}

// UpdateIncomingFwd sets wgt_fwd = fwd on every stored edge into dst — the
// crawler's trigger once the target's true relevance is known. Incoming
// edges are striped by their sources, so they may live in any stripe; the
// dst registry names the stripes actually holding edges into dst, and only
// those are locked and probed, in ascending id order — O(in-degree stripes)
// lock acquisitions and directory walks per visit instead of O(NumStripes).
// Probing an edge-free stripe would be a no-op, so the result is identical
// to an every-stripe sweep at any stripe count. Callers must not hold any
// shard or global lock (stripe locks rank below both) and must have
// published the target's visited state first; see WeightFunc and the
// registration ordering in Apply.
func (s *Store) UpdateIncomingFwd(dst int64, fwd float64) error {
	return s.sweep(dst, func(st *stripe) error {
		st.mu.Lock()
		err := st.updateIncomingFwd(dst, fwd)
		st.mu.Unlock()
		return err
	})
}

// UpdateIncomingFwdLocked is UpdateIncomingFwd for callers already holding
// every stripe lock — the crawler's barrier uses it to drain sweeps still
// pending when a distillation stops the world. It routes through the dst
// registry exactly as the unlocked form does: registrations happen under
// stripe locks the barrier holds, so no ingest can be mid-flight and the
// mask is exact.
//
//focuslint:lock requires=stripe*
func (s *Store) UpdateIncomingFwdLocked(dst int64, fwd float64) error {
	return s.sweep(dst, func(st *stripe) error {
		// The closure runs on the caller's goroutine, under the barrier's
		// stripe locks; the checker analyzes closures from an empty state and
		// cannot see the inherited holds.
		//focuslint:ignore locktower closure inherits the caller's requires=stripe* holds
		return st.updateIncomingFwd(dst, fwd)
	})
}

// sweep walks the stripes holding edges into dst in ascending id order,
// applying the rewrite through probe. The dst's mask is copied out of the
// registry before any stripe is touched — registry locks are leaves, never
// held while acquiring a stripe lock.
func (s *Store) sweep(dst int64, probe func(st *stripe) error) error {
	s.sweeps.Add(1)
	var scratch [4]uint64 // up to 256 stripes without allocating
	mask := s.reg.snapshot(dst, scratch[:0])
	probes := 0
	for w, word := range mask {
		for word != 0 {
			si := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			probes++
			if err := probe(s.stripes[si]); err != nil {
				return err
			}
		}
	}
	s.sweepProbes.Add(int64(probes))
	return nil
}

// SweepStats reports how many incoming-weight sweeps ran and how many
// stripe probes (lock + directory walk) they cost in total. The ratio is the
// average in-degree stripe spread of swept targets, flat in NumStripes.
func (s *Store) SweepStats() (sweeps, stripeProbes int64) {
	return s.sweeps.Load(), s.sweepProbes.Load()
}

// updateIncomingFwd rewrites the stripe's edges into dst, found by walking
// dst's chain in the in-edge directory: a pending snapshot's copy aside, the
// only pages it touches are the heap pages holding those rows.
//
//focuslint:lock requires=stripe
func (st *stripe) updateIncomingFwd(dst int64, fwd float64) error {
	at := chainHead(st.dir.in, dst)
	if at < 0 {
		return nil
	}
	// Copy-on-write: pending snapshots capture the pre-rewrite image.
	if err := st.materializePending(); err != nil {
		return err
	}
	for ; at >= 0; at = st.dir.rows[at].nextIn {
		if err := st.tab.SetCol(st.dir.rows[at].rid, ColWgtFwd, relstore.F64(fwd)); err != nil {
			return err
		}
	}
	return nil
}

// CheckDirectory verifies every stripe's in-edge and out-edge directories
// against a scan of its heap: each row is reached exactly once, at its own
// RID, from the in-edge chain of its oid_dst and from the out-edge chain of
// its oid_src; each directory holds exactly as many entries as the stripe has
// rows; and every destination in the in-edge directory has the stripe's bit
// in the dst registry. It takes one stripe lock at a time, so it is exact on
// a store nothing is writing to.
func (s *Store) CheckDirectory() error {
	for _, st := range s.stripes {
		st.mu.Lock()
		err := st.checkDirectory(s.reg)
		st.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

//focuslint:lock requires=stripe
func (st *stripe) checkDirectory(reg *dstRegistry) error {
	if n := st.tab.Rows(); int64(len(st.dir.rows)) != n {
		return fmt.Errorf("linkgraph: stripe %d: directory holds %d entries for %d rows", st.id, len(st.dir.rows), n)
	}
	dstAt := make(map[relstore.RID]int64, len(st.dir.rows))
	srcAt := make(map[relstore.RID]int64, len(st.dir.rows))
	err := st.tab.ScanCols([]int{ColDst, ColSrc}, func(rid relstore.RID, v []relstore.Value) (bool, error) {
		dstAt[rid], srcAt[rid] = v[0].Int(), v[1].Int()
		return false, nil
	})
	if err != nil {
		return err
	}
	var scratch [4]uint64
	for dst := range st.dir.in {
		mask := reg.snapshot(dst, scratch[:0])
		if len(mask) == 0 || mask[st.id/64]&(1<<uint(st.id%64)) == 0 {
			return fmt.Errorf("linkgraph: stripe %d: directory has destination %d but the registry lacks the stripe's bit", st.id, dst)
		}
	}
	if err := st.dir.check(st.dir.in, func(r *edgeRow) int32 { return r.nextIn }, dstAt); err != nil {
		return fmt.Errorf("linkgraph: stripe %d: in-edge directory: %w", st.id, err)
	}
	if err := st.dir.check(st.dir.out, func(r *edgeRow) int32 { return r.nextOut }, srcAt); err != nil {
		return fmt.Errorf("linkgraph: stripe %d: out-edge directory: %w", st.id, err)
	}
	return nil
}

// check verifies the chains head starts, linked by next, against endAt, the
// oid each of the stripe's rows carries at their end: every row is reached
// exactly once, at its RID, from its oid's chain. endAt is emptied.
func (d *edgeDirectory) check(head map[int64]int32, next func(*edgeRow) int32, endAt map[relstore.RID]int64) error {
	for oid, at := range head {
		for ; at >= 0; at = next(&d.rows[at]) {
			if int(at) >= len(d.rows) {
				return fmt.Errorf("chain of %d runs off the directory at %d", oid, at)
			}
			rid := d.rows[at].rid
			if end, ok := endAt[rid]; !ok || end != oid {
				return fmt.Errorf("chain of %d reaches %v, which is no row of it or was reached before", oid, rid)
			}
			// A row is reached once: a second reach finds it gone.
			delete(endAt, rid)
		}
	}
	if len(endAt) != 0 {
		return fmt.Errorf("%d rows are not on their chain", len(endAt))
	}
	return nil
}

// Scan visits every stored edge tuple in stripe order (stripe 0 first),
// heap order within a stripe — with one stripe, exactly the single-table
// LINK scan order. Each stripe is locked for its portion of the scan; for
// a consistent cross-stripe snapshot hold the barrier and use ScanLocked.
func (s *Store) Scan(fn func(rid relstore.RID, t relstore.Tuple) (bool, error)) error {
	for _, st := range s.stripes {
		st.mu.Lock()
		err := st.tab.Scan(fn)
		st.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// ScanLocked is Scan for callers already holding every stripe lock.
//
//focuslint:lock requires=stripe*
func (s *Store) ScanLocked(fn func(rid relstore.RID, t relstore.Tuple) (bool, error)) error {
	for _, st := range s.stripes {
		if err := st.tab.Scan(fn); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is an immutable point-in-time view of the LINK relation: one
// tuple run per stripe, in ascending stripe id, heap order within each run
// — exactly the Store.Scan order of the moment the snapshot was taken. It
// satisfies the distiller's LinkRel surface, so a distillation epoch can
// run entirely off to the side while workers keep mutating the live store.
//
// The view is copy-on-write: taking a snapshot registers it with every
// stripe in O(stripes) — the part that runs under the crawler's
// stop-the-world barrier — and the O(rows) tuple copy of a stripe happens
// later, off the barrier, at the stripe's first subsequent write (which
// copies once and shares the run with every snapshot pending there) or at
// the snapshot reader's first access to that stripe, whichever comes
// first. A stripe no write or read ever touches again is never copied at
// all. Scan reports a zero RID (snapshot rows have no stable storage
// address).
type Snapshot struct {
	store *Store
	edges int64
	// runs[i] is stripe i's materialized tuple run, nil until the stripe's
	// copy-on-write or a reader's lazy materialization fills it (both under
	// the stripe lock). Immutable once stored.
	runs []atomic.Pointer[[]relstore.Tuple]
}

// SnapshotLocked registers a snapshot against every stripe. The caller must
// hold every stripe lock (the crawler's short distill barrier); the
// registration is therefore a consistent cross-stripe cut, and costs
// O(stripes), not O(edges) — the copies happen copy-on-write after the
// barrier drops (see Snapshot).
//
//focuslint:lock requires=stripe*
func (s *Store) SnapshotLocked() (*Snapshot, error) {
	sn := &Snapshot{
		store: s,
		runs:  make([]atomic.Pointer[[]relstore.Tuple], len(s.stripes)),
	}
	for _, st := range s.stripes {
		st.pend = append(st.pend, sn)
		sn.edges += st.tab.Rows()
	}
	return sn, nil
}

// run returns stripe i's tuple run, lazily materializing it from the live
// stripe if no post-snapshot write has copied it out yet. The stripe lock
// is taken only on that first access; once the pointer is set the stripe
// is never touched again.
func (sn *Snapshot) run(i int) ([]relstore.Tuple, error) {
	if p := sn.runs[i].Load(); p != nil {
		return *p, nil
	}
	st := sn.store.stripes[i]
	st.mu.Lock()
	err := st.materializePending()
	st.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// materializePending filled sn.runs[i] (either our call or a racing
	// writer's before we took the lock).
	return *sn.runs[i].Load(), nil
}

// Rows returns the snapshot's edge count (captured at the barrier).
func (sn *Snapshot) Rows() int64 { return sn.edges }

// Scan visits every snapshot edge in stripe order, heap order within a
// stripe — the same order Store.Scan produced at snapshot time.
func (sn *Snapshot) Scan(fn func(rid relstore.RID, t relstore.Tuple) (bool, error)) error {
	for i := range sn.runs {
		run, err := sn.run(i)
		if err != nil {
			return err
		}
		for _, t := range run {
			stop, err := fn(relstore.RID{}, t)
			if err != nil {
				return err
			}
			if stop {
				return nil
			}
		}
	}
	return nil
}

// Iter returns an iterator over the snapshot in Scan order. Each call
// returns an independent iterator, so several consumers may stream the same
// snapshot concurrently.
func (sn *Snapshot) Iter() (relstore.Iterator, error) {
	return &snapshotIter{sn: sn}, nil
}

type snapshotIter struct {
	sn     *Snapshot
	run    int
	cur    []relstore.Tuple
	loaded bool
	next   int
}

func (it *snapshotIter) Next() (relstore.Tuple, bool, error) {
	for {
		if !it.loaded {
			if it.run >= len(it.sn.runs) {
				return nil, false, nil
			}
			r, err := it.sn.run(it.run)
			if err != nil {
				return nil, false, err
			}
			it.cur, it.loaded, it.next = r, true, 0
		}
		if it.next < len(it.cur) {
			t := it.cur[it.next]
			it.next++
			return t, true, nil
		}
		it.run++
		it.loaded = false
	}
}
