// Package linkgraph is the striped store of the LINK relation (Figure 1 of
// the paper). The first reproduction kept LINK as one table behind the
// crawler's global mutex, so every worker serialized on it once per outlink
// — the hot-path bottleneck after the frontier was sharded. Here the
// relation is partitioned by hash(oid_src) into Stripes physical tables
// (LINK#0 … LINK#n-1), each a bare heap with its own in-memory out-edge
// directory and its own mutex; edges of one source page always land in one
// stripe, so a page's whole out-link batch commits under a single stripe
// lock.
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
// LINK is append-only: a row is never moved, rewritten or deleted, and a
// stripe's heap only grows at its tail. The paper keeps EF[u,v] =
// relevance(v) exact with a trigger that rewrites LINK when v is
// classified; this store resolves it where it is read instead.
// UpdateIncomingFwd appends (v, relevance) to a forward-weight log that
// touches no page, and every read surface (Scan, ScanBySrc,
// Snapshot.Scan) returns wgt_fwd as the log's value for oid_dst when the
// log has one, else the weight stored at ingest. A snapshot is therefore
// a cut: each stripe's row count and the log's length, read into memory
// once, when it is first scanned.
//
// # Lock ordering
//
// Stripe mutexes rank above the crawler's epoch mutex and below its
// frontier-shard mutexes: a goroutine may acquire a shard mutex while
// holding a stripe mutex (the crawler's barrier does exactly that), but
// never the reverse. The log's mutex is a pure leaf: it may be taken under
// any tower lock (the crawler logs a visit under its shard lock) and
// nothing is acquired while it is held, so no cycle can involve it.
// Multi-stripe operations (LockAll, Apply, the scans) take stripe locks in
// ascending id order, one at a time unless a consistent cross-stripe view
// is required. The crawler's stop-the-world barrier therefore begins with
// LockAll before it touches shard locks; see DESIGN.md and the
// internal/relstore package doc for the full contract.
package linkgraph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"

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

// stripe is one partition: its own table, out-edge directory, and lock.
type stripe struct {
	id int
	// Below the crawler's shard locks in the tower: a shard lock may be
	// acquired while a stripe mutex is held (the crawler's barrier does
	// exactly that), never the reverse.
	//focuslint:lock rank=stripe order=10
	mu  sync.Mutex
	tab *relstore.Table
	// dir is the out-edge directory, guarded by mu: filled in applyLocked
	// from the RIDs InsertBatch assigns, in the same critical section, and
	// walked by ingest's dedup, Contains and ScanBySrc. LINK rows are never
	// moved or deleted, so an entry stays valid for the life of the store.
	dir edgeDirectory
	// ord is skipDuplicates' sort scratch, guarded by mu.
	ord []int32

	// batches recycles the row batches Apply fills for this stripe's table
	// (relstore.RowBatch keeps its arena across Reset). A batch is taken
	// before the stripe lock, because it is filled outside it, so the stripe
	// cannot simply own one.
	batches sync.Pool
}

func newStripe(id int, tab *relstore.Table) *stripe {
	return &stripe{id: id, tab: tab, dir: edgeDirectory{head: map[int64]int32{}}}
}

// edgeDirectory is a stripe's out-edge directory over one entry per row: head
// maps an oid_src to the entry of its newest row, and each entry links to the
// previous row out of the same source. A source's rows form a chain through
// one slice, newest first, so the directory holds no pointer and the garbage
// collector never marks it entry by entry (a slice of RIDs per oid costs one
// object per oid).
type edgeDirectory struct {
	head map[int64]int32 // oid_src -> index in rows of its newest row
	rows []edgeRow
}

type edgeRow struct {
	rid relstore.RID
	// The previous row's entry in the same source's chain; -1 ends a chain.
	next int32
}

// add records the row at rid, an edge out of src.
func (d *edgeDirectory) add(src int64, rid relstore.RID) {
	at := int32(len(d.rows))
	d.rows = append(d.rows, edgeRow{rid: rid, next: d.first(src)})
	d.head[src] = at
}

// first is the entry of src's newest row, or -1.
func (d *edgeDirectory) first(src int64) int32 {
	if at, ok := d.head[src]; ok {
		return at
	}
	return -1
}

// fwdLog is the forward-weight log: one entry per UpdateIncomingFwd, in call
// order, and the newest value per destination. Both are pointer-free, and
// they grow by one entry per logged visit, not per edge or per destination
// ever linked to.
type fwdLog struct {
	// Pure leaf: taken under any tower lock or none; nothing may be acquired
	// and no blocking operation may run while it is held.
	//focuslint:lock rank=fwdlog leaf noblock=io,chan,sleep
	mu      sync.Mutex
	entries []fwdEntry
	// latest is entries resolved, for point reads (ScanBySrc).
	latest map[int64]float64
}

type fwdEntry struct {
	dst int64
	fwd float64
}

// cut returns the log as it stands. Entries are never rewritten and later
// ones land past the returned length, so the cut may be read without the
// lock.
func (l *fwdLog) cut() []fwdEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries[:len(l.entries):len(l.entries)]
}

func (l *fwdLog) append(dst int64, fwd float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.latest == nil {
		l.latest = map[int64]float64{}
	}
	l.entries = append(l.entries, fwdEntry{dst, fwd})
	l.latest[dst] = fwd
}

// resolve maps each destination in a cut to its last logged weight.
func resolve(cut []fwdEntry) map[int64]float64 {
	w := make(map[int64]float64, len(cut))
	for _, e := range cut {
		w[e.dst] = e.fwd
	}
	return w
}

// Store is the striped LINK relation.
type Store struct {
	db      *relstore.DB
	stripes []*stripe
	log     fwdLog
}

// New creates the stripe tables LINK#0 … LINK#n-1 in db, each a bare heap
// with an empty out-edge directory. n <= 0 means one stripe.
func New(db *relstore.DB, n int) (*Store, error) {
	if n <= 0 {
		n = 1
	}
	s := &Store{db: db}
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
// below shard locks, so LockAll must come first in the barrier.
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

// WeightFunc sets an inserted edge's stored forward weight, the ingest-time
// estimate. It is called under the edge's stripe lock, immediately before
// insertion. Reads resolve wgt_fwd against the forward-weight log, so the
// stored value shows only for targets never logged; the crawler passes no
// WeightFunc, and the type stays for the benchmark's replay.
type WeightFunc func(Edge) (float64, error)

// Apply ingests a batch in one pass: edges are grouped by stripe, stripes
// are visited in ascending id order and locked once each, and within a
// stripe edges apply in batch arrival order (so with one stripe the heap
// order is exactly the arrival order). Each edge is deduplicated against the
// batch and the stored edges; duplicates — within the batch or against edges
// another worker already committed — are skipped. weight, if non-nil,
// sets WgtFwd per inserted edge. Returns inserted flags aligned with
// b.Edges(); a false entry means the edge was a duplicate.
//
// A stripe's share of the batch is applied as three set operations, not edge
// by edge: its rows are encoded before the stripe lock is taken (prepare);
// under the lock the duplicates are marked (skipDuplicates), the weight
// callbacks run, and one relstore.Table.InsertBatch commits the survivors to
// the heap in arrival order, whose RIDs then enter the out-edge directory
// (applyLocked).
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
			err = st.applyLocked(rows, group, b.edges, weight, inserted)
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

func (st *stripe) applyLocked(rows *relstore.RowBatch, idxs []int, edges []Edge, weight WeightFunc, inserted []bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.skipDuplicates(rows, idxs, edges); err != nil {
		return err
	}
	// The weight callbacks, in arrival order, each for an edge that will be
	// inserted; the weight is written into the row's encoded record.
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
	if err := st.tab.InsertBatch(rows); err != nil {
		return err
	}
	for r, i := range idxs {
		if !rows.Skipped(r) {
			inserted[i] = true
			st.dir.add(edges[i].Src, rows.RID(r))
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
	for at := st.dir.first(src); at >= 0; at = st.dir.rows[at].next {
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
	return s.scanBySrc(st, src, fn)
}

// ScanBySrcLocked is ScanBySrc for callers already holding the stripe locks
// (the crawler's barrier).
//
//focuslint:lock requires=stripe*
func (s *Store) ScanBySrcLocked(src int64, fn func(Edge) (bool, error)) error {
	return s.scanBySrc(s.stripeFor(src), src, fn)
}

//focuslint:lock requires=stripe
func (s *Store) scanBySrc(st *stripe, src int64, fn func(Edge) (bool, error)) error {
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
	s.log.mu.Lock()
	for i := range out {
		if fwd, ok := s.log.latest[out[i].Dst]; ok {
			out[i].WgtFwd = fwd
		}
	}
	s.log.mu.Unlock()
	slices.SortFunc(out, func(a, b Edge) int { return cmp.Compare(a.Dst, b.Dst) })
	for _, e := range out {
		if stop, err := fn(e); stop || err != nil {
			return err
		}
	}
	return nil
}

// UpdateIncomingFwd records fwd as the forward weight of every edge into dst
// — the crawler's trigger once the target's true relevance is known. It
// appends to the forward-weight log in O(1) and touches no page; every later
// read resolves the edges into dst against it, including edges ingested
// after this call. A later call for the same dst supersedes the earlier
// one. Any lock may be held, or none.
func (s *Store) UpdateIncomingFwd(dst int64, fwd float64) error {
	s.log.append(dst, fwd)
	return nil
}

// SweepStats reports no sweeps and no stripe probes: forward weights are
// resolved where they are read, so nothing sweeps LINK. It stays while the
// benchmark still reads it.
func (s *Store) SweepStats() (sweeps, stripeProbes int64) { return 0, 0 }

// CheckDirectory verifies every stripe's out-edge directory against a scan
// of its heap — each row is reached exactly once, at its own RID, from the
// chain of its oid_src, and the directory holds exactly as many entries as
// the stripe has rows — and the forward-weight log's point-read map against
// its entries. It takes one lock at a time, so it is exact on a store
// nothing is writing to.
func (s *Store) CheckDirectory() error {
	for _, st := range s.stripes {
		st.mu.Lock()
		err := st.checkDirectory()
		st.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return s.log.check()
}

// check verifies the point-read map against the entries.
func (l *fwdLog) check() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !maps.Equal(l.latest, resolve(l.entries)) {
		return fmt.Errorf("linkgraph: the forward-weight log's point reads disagree with its %d entries", len(l.entries))
	}
	return nil
}

//focuslint:lock requires=stripe
func (st *stripe) checkDirectory() error {
	if n := st.tab.Rows(); int64(len(st.dir.rows)) != n {
		return fmt.Errorf("linkgraph: stripe %d: directory holds %d entries for %d rows", st.id, len(st.dir.rows), n)
	}
	srcAt := make(map[relstore.RID]int64, len(st.dir.rows))
	err := st.tab.ScanCols([]int{ColSrc}, func(rid relstore.RID, v []relstore.Value) (bool, error) {
		srcAt[rid] = v[0].Int()
		return false, nil
	})
	if err != nil {
		return err
	}
	for src, at := range st.dir.head {
		for ; at >= 0; at = st.dir.rows[at].next {
			if int(at) >= len(st.dir.rows) {
				return fmt.Errorf("linkgraph: stripe %d: chain of %d runs off the directory at %d", st.id, src, at)
			}
			rid := st.dir.rows[at].rid
			if got, ok := srcAt[rid]; !ok || got != src {
				return fmt.Errorf("linkgraph: stripe %d: chain of %d reaches %v, which is no row of it or was reached before", st.id, src, rid)
			}
			// A row is reached once: a second reach finds it gone.
			delete(srcAt, rid)
		}
	}
	if len(srcAt) != 0 {
		return fmt.Errorf("linkgraph: stripe %d: %d rows are not on their chain", st.id, len(srcAt))
	}
	return nil
}

// allCols lists every LINK column; all of them are fixed-width.
var allCols = []int{ColSrc, ColSidSrc, ColDst, ColSidDst, ColWgtFwd, ColWgtRev}

// scan calls fn with the stripe's first n rows in heap order, wgt_fwd
// resolved against w; stop reports that fn ended the scan. The heap only
// appends at its tail, so its first n rows are the stripe as it stood when
// it held n. Rows are decoded into one tuple reused from row to row, so a
// scan allocates nothing per row.
//
//focuslint:lock requires=stripe
func (st *stripe) scan(n int64, w map[int64]float64, fn func(rid relstore.RID, t relstore.Tuple) (bool, error)) (stop bool, err error) {
	if n == 0 {
		return false, nil
	}
	var seen int64
	err = st.tab.ScanCols(allCols, func(rid relstore.RID, t []relstore.Value) (bool, error) {
		if fwd, ok := w[t[ColDst].Int()]; ok {
			t[ColWgtFwd] = relstore.F64(fwd)
		}
		seen++
		var ferr error
		stop, ferr = fn(rid, t)
		return stop || seen == n, ferr
	})
	return stop, err
}

// Scan visits every stored edge tuple in stripe order (stripe 0 first),
// heap order within a stripe — with one stripe, exactly the single-table
// LINK scan order — with wgt_fwd resolved against the forward-weight log as
// it stood when the scan began. The tuple is valid only during the call.
// Each stripe is locked for its portion of the scan, fn included, so fn
// must not write to the store; for a consistent cross-stripe view take a
// Snapshot.
func (s *Store) Scan(fn func(rid relstore.RID, t relstore.Tuple) (bool, error)) error {
	w := resolve(s.log.cut())
	for _, st := range s.stripes {
		st.mu.Lock()
		stop, err := st.scan(st.tab.Rows(), w, fn)
		st.mu.Unlock()
		if stop || err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is an immutable point-in-time view of the LINK relation: the
// first rows[i] heap rows of each stripe i, with wgt_fwd resolved against
// the first entries of the forward-weight log — exactly what Store.Scan
// returned the moment the snapshot was taken. It satisfies the distiller's
// LinkRel surface, so a distillation epoch can run entirely off to the side
// while workers keep appending to the live store: rows and log entries
// written later lie past the cut.
type Snapshot struct {
	store *Store
	rows  []int64
	edges int64
	fwd   []fwdEntry

	// read fills cut, the snapshot's edges in Scan order, on the first Scan:
	// each stripe's lock is held once per snapshot, and an epoch's later
	// scans read no page and take no lock.
	read sync.Once
	cut  []Edge
	err  error
}

// SnapshotLocked takes a snapshot. The caller must hold every stripe lock
// (the crawler's short distill barrier), so the cut is consistent across
// stripes; it costs O(stripes) and reads no page.
//
//focuslint:lock requires=stripe*
func (s *Store) SnapshotLocked() (*Snapshot, error) {
	sn := &Snapshot{store: s, rows: make([]int64, len(s.stripes)), fwd: s.log.cut()}
	for i, st := range s.stripes {
		sn.rows[i] = st.tab.Rows()
		sn.edges += sn.rows[i]
	}
	return sn, nil
}

// Rows returns the snapshot's edge count (captured at the barrier).
func (sn *Snapshot) Rows() int64 { return sn.edges }

// Scan visits every snapshot edge in stripe order, heap order within a
// stripe — the same order and weights Store.Scan produced at snapshot time
// — with a zero RID. The tuple is valid only during the call.
func (sn *Snapshot) Scan(fn func(rid relstore.RID, t relstore.Tuple) (bool, error)) error {
	sn.read.Do(sn.readCut)
	if sn.err != nil {
		return sn.err
	}
	t := make(relstore.Tuple, len(allCols))
	for _, e := range sn.cut {
		t[ColSrc], t[ColSidSrc], t[ColDst] = relstore.I64(e.Src), relstore.I32(e.SidSrc), relstore.I64(e.Dst)
		t[ColSidDst], t[ColWgtFwd], t[ColWgtRev] = relstore.I32(e.SidDst), relstore.F64(e.WgtFwd), relstore.F64(e.WgtRev)
		if stop, err := fn(relstore.RID{}, t); stop || err != nil {
			return err
		}
	}
	return nil
}

// readCut reads each stripe's first rows[i] rows, weights resolved, into cut,
// holding the stripe's lock while it does.
func (sn *Snapshot) readCut() {
	w := resolve(sn.fwd)
	sn.cut = make([]Edge, 0, sn.edges)
	for i, st := range sn.store.stripes {
		st.mu.Lock()
		_, sn.err = st.scan(sn.rows[i], w, func(_ relstore.RID, t relstore.Tuple) (bool, error) {
			sn.cut = append(sn.cut, EdgeOf(t))
			return false, nil
		})
		st.mu.Unlock()
		if sn.err != nil {
			return
		}
	}
}
