package crawler

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"focus/internal/relstore"
)

// A shard owns one host-partition of the CRAWL relation: its own table
// (named CRAWL#<id>), its own in-memory oid directory — each row's RID with
// a mirror of its status and relevance (dirEntry) — its own in-memory
// frontier set — the checkout order over the rows checkout can return — and
// its own visit log, all guarded by the shard mutex. All three are rebuilt
// from the table's heap on resume; the heap is the only durable state.
// Hosts are assigned to shards by hashing the server id (shardFor), so
// every URL of a server — and therefore that server's serverload
// accounting — lives in exactly one shard.
//
// Lock ordering: a goroutine holds at most one shard mutex at a time, the
// top of the lock tower: only leaf locks are taken under it. Link stripe
// mutexes rank *below* shard mutexes, because the barrier takes them
// first, and are never acquired while a shard mutex is held. Whole-frontier
// operations (distillation, checkpoints, policy swaps, the missed-neighbors
// query) take every link stripe lock, then every shard mutex, each in
// ascending id order — see Crawler.lockAll.
type shard struct {
	id int
	// Tower rank 20: above link stripes, the top of the tower. Table
	// operations under it may transitively reach buffer-pool channel waits
	// and disk I/O (that is the off-latch design), so only *direct* blocking
	// operations are banned in its critical sections.
	//focuslint:lock rank=shard order=20 noblockdirect=io,chan,sleep
	mu     sync.Mutex
	crawl  *relstore.Table
	policy Policy

	rids  map[int64]dirEntry // oid directory: rows are never moved or deleted
	front *frontierSet       // the StatusFrontier rows, ascending by policy key
	// visits is the visit log: one point per StatusVisited row, ascending by
	// Seq, appended where complete marks the row visited (see eachVisit).
	visits []HarvestPoint

	// Scratch of admitLocked, guarded by mu: the tuple each new row is
	// encoded from, and the rows the current group adds to the heap.
	row  relstore.Tuple
	born []bornRow

	// serverSeen counts URLs seen per server id. Because a host maps to
	// exactly one shard, these counts equal the pre-shard global ones.
	serverSeen map[int32]int32
	insertSeq  int64 // per-shard FIFO sequence (cross-shard FIFO is relaxed)

	frontierN atomic.Int64 // checkable frontier rows (read without the lock)
	// inflightRows counts this shard's StatusInflight rows under mu, moved
	// where the status column is written; checkpoints sum it. Unlike the
	// crawler's inflight it drops when the row does, not at the end of complete.
	inflightRows int64

	// head publishes the frontier-set key of this shard's current frontier
	// head (nil when empty), written only under mu and read lock-free by
	// checkout's shard selection, which pops from the shard whose head is
	// globally best. The hint may lag mutations by one checkout; that
	// bounded staleness only affects which shard is chosen, never the
	// within-shard order.
	head atomic.Pointer[frontierKey]

	// Politeness state, guarded by mu and populated only when the
	// crawler's politeness/backoff features are on (see politeness.go).
	// A host maps to exactly one shard, so its token bucket and breaker
	// need no lock of their own. hosts holds per-server pacing and
	// breaker state; notBefore holds per-row retry eligibility times.
	hosts     map[int32]*hostState
	notBefore map[int64]time.Time
}

// newShard creates the shard's CRAWL partition table and an empty frontier
// set.
func newShard(db *relstore.DB, id int, policy Policy) (*shard, error) {
	sh := &shard{
		id: id, policy: policy,
		rids:       make(map[int64]dirEntry),
		front:      &frontierSet{},
		serverSeen: make(map[int32]int32),
		hosts:      make(map[int32]*hostState),
		notBefore:  make(map[int64]time.Time),
	}
	var err error
	if sh.crawl, err = db.CreateTable(fmt.Sprintf("CRAWL#%d", id), CrawlSchema()); err != nil {
		return nil, err
	}
	return sh, nil
}

// dirEntry is a CRAWL row's oid-directory entry: where the row lies, and a
// mirror of its status and relevance columns, so that link expansion, the
// hub-neighbor boost and the distill barrier decide what to do with a row
// without reading its heap page. Every write of either column updates the
// entry in the critical section that writes the heap (writeLocked,
// admitLocked; attachShard while it rebuilds). 16 bytes, no pointer.
type dirEntry struct {
	page   uint32
	slot   uint16
	status int16
	rel    float64
}

// newDirEntry is the entry of a row at rid with the given status and
// relevance.
func newDirEntry(rid relstore.RID, status int32, rel float64) dirEntry {
	return dirEntry{page: uint32(rid.Page), slot: rid.Slot, status: int16(status), rel: rel}
}

// entryOf is the entry of row, stored at rid.
func entryOf(rid relstore.RID, row relstore.Tuple) dirEntry {
	return newDirEntry(rid, int32(row[CStatus].Int()), row[CRel].Float())
}

func (d dirEntry) rid() relstore.RID {
	return relstore.RID{Page: relstore.PageID(d.page), Slot: d.slot}
}

// target is a URL to enter into its home shard, with its hashes (OIDOf,
// SIDOf) computed once by the caller.
type target struct {
	oid int64
	sid int32
	url string
}

// bornRow is a row admitLocked has encoded into the table's batch: its oid
// and frontier-set key, entered once InsertBatch has placed it.
type bornRow struct {
	oid int64
	key frontierKey
}

// shardIndex maps a server id to its home shard's index. The mapping is a
// pure function of the sid and the shard count, so a host is stable for the
// lifetime of a crawl and LINK rows (which carry sid_dst) locate the
// target's shard without a URL in hand.
func (c *Crawler) shardIndex(sid int32) int {
	return int(uint32(sid) % uint32(len(c.shards)))
}

// shardFor maps a server id to its home shard.
func (c *Crawler) shardFor(sid int32) *shard { return c.shards[c.shardIndex(sid)] }

// lockAll acquires every link stripe mutex, then every shard mutex, each in
// ascending id order — the stop-the-world barrier used by distillation
// snapshots, checkpoints, policy swaps, Tables and Crawl, and the
// missed-neighbors query. Stripes come first because they rank lowest in
// the lock order: an ingesting worker holding a stripe lock may be waiting
// for a shard lock, so taking stripes before shards lets it drain.
//
//focuslint:lock sequence=stripe*,shard* exit=held
func (c *Crawler) lockAll() {
	c.links.LockAll()
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
}

// unlockAll releases the barrier in reverse order.
//
//focuslint:lock releases=shard*,stripe*
func (c *Crawler) unlockAll() {
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
	c.links.UnlockAll()
}

// eachVisit calls fn with every logged visit, a shard at a time. A shard's
// log is read as it stood when its lock was taken, without the lock: an
// entry is never rewritten, and later ones land past the copied length.
func (c *Crawler) eachVisit(fn func(h *HarvestPoint)) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		log := sh.visits[:len(sh.visits):len(sh.visits)]
		sh.mu.Unlock()
		for i := range log {
			fn(&log[i])
		}
	}
}

// admitLocked enters a group of targets homed in this shard, in the group's
// order, under one hold of sh.mu — the one way a CRAWL row is born. The oid
// directory decides each target without reading a heap page: an absent one
// becomes a frontier row at relevance prio; with raise set, a known frontier
// row below prio is raised to it (the only case that reads and rewrites a
// row); any other known target is left alone. The new rows are encoded into
// the table's own batch and committed by one Table.InsertBatch — one pin of
// the tail page, and the heap order a loop of inserts would give — and only
// then enter the directory and the frontier set under the RIDs it assigned.
// insertSeq and serverSeen are assigned in the group's order. A target
// repeated in the group is new once and known after: its entry is written
// when it is encoded, at relevance prio, so no later copy raises it. sh.mu
// must be held.
//
//focuslint:lock requires=shard
func (sh *shard) admitLocked(group []target, prio float64, raise bool) error {
	rows := sh.crawl.Batch()
	sh.born = sh.born[:0]
	err := sh.stageLocked(rows, group, prio, raise)
	if err == nil && len(sh.born) > 0 {
		err = sh.crawl.InsertBatch(rows)
	}
	for r, b := range sh.born {
		if err != nil {
			delete(sh.rids, b.oid) // never stored
			continue
		}
		rid := rows.RID(r)
		sh.rids[b.oid] = newDirEntry(rid, StatusFrontier, prio)
		sh.enterLocked(b.key, rid)
	}
	return err
}

// stageLocked is admitLocked's pass over the group: it raises what needs
// raising and encodes each new target's row into rows, listing it in
// sh.born with a directory entry still to be placed; sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) stageLocked(rows *relstore.RowBatch, group []target, prio float64, raise bool) error {
	if sh.row == nil {
		sh.row = make(relstore.Tuple, len(CrawlSchema().Cols))
	}
	row := sh.row
	for _, t := range group {
		d, known := sh.rids[t.oid]
		if known {
			if !raise || int32(d.status) != StatusFrontier || prio <= d.rel {
				continue
			}
			stored, err := sh.crawl.Get(d.rid())
			if err != nil {
				return err
			}
			if err := sh.raiseLocked(d.rid(), stored, prio); err != nil {
				return err
			}
			continue
		}
		sh.serverSeen[t.sid]++
		sh.insertSeq++
		row[COID] = relstore.I64(t.oid)
		row[CURL] = relstore.Str(t.url)
		row[CRel] = relstore.F64(prio)
		row[CTries] = relstore.I32(0)
		row[CLoad] = relstore.I32(sh.serverSeen[t.sid])
		row[CLast] = relstore.I64(0)
		row[CKcid] = relstore.I32(0)
		row[CStatus] = relstore.I32(StatusFrontier)
		row[CSeq] = relstore.I64(sh.insertSeq)
		key, err := frontierKeyOf(sh.policy, row)
		if err != nil {
			return err
		}
		if err := rows.AddRecord(row); err != nil {
			return err
		}
		sh.rids[t.oid] = newDirEntry(relstore.RID{}, StatusFrontier, prio) // placed by admitLocked
		sh.born = append(sh.born, bornRow{t.oid, key})
	}
	return nil
}

// enterLocked puts the frontier row at rid into the frontier set under key,
// counts it, and improves the head hint; sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) enterLocked(key frontierKey, rid relstore.RID) {
	sh.front.insert(key, rid)
	sh.frontierN.Add(1)
	sh.improveHeadLocked(&key)
}

// rekeyLocked moves the frontier row at rid from key from to key to — its
// priority was raised — and improves the head hint; sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) rekeyLocked(from, to frontierKey, rid relstore.RID) error {
	if from == to {
		return nil
	}
	if !sh.front.delete(&from) {
		return fmt.Errorf("crawler: shard %d: frontier row at %v is not in the frontier set", sh.id, rid)
	}
	sh.front.insert(to, rid)
	sh.improveHeadLocked(&to)
	return nil
}

// improveHeadLocked lowers the published head hint to key if it is better;
// sh.mu must be held. Valid for mutations that can only add rows or raise
// a row's priority (inserts, retry re-entries, relevance bumps).
//
//focuslint:lock requires=shard
func (sh *shard) improveHeadLocked(key *frontierKey) {
	if h := sh.head.Load(); h == nil || key.compare(h) < 0 {
		k := *key
		sh.head.Store(&k)
	}
}

// recomputeHeadLocked publishes the frontier set's first key as the head
// (after a removal or a rebuild); sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) recomputeHeadLocked() {
	e, ok := sh.front.first()
	if !ok {
		sh.head.Store(nil)
		return
	}
	sh.head.Store(&e.key)
}

// checkout pops the shard's best eligible frontier row (in the policy's
// order) and marks it in flight. Returns ok=false when nothing in this
// shard's frontier can be checked out now. With politeness on (see
// politeness.go) the walk skips rows still backing off, hosts at their
// in-flight cap or inside their inter-fetch delay, and hosts behind an open
// breaker; skipped rows stay in the frontier at full priority, and the
// returned wake time is the earliest moment one becomes eligible by clock
// (zero when nothing is waiting on the clock — blocks that clear through
// other events, like a host slot freeing, always coincide with a fetch in
// flight, which the worker already waits on). With politeness off every row
// is eligible, the first key pops, and no host state is touched.
//
// The crawler's inflight counter is raised under the shard lock *before*
// the frontier counter drops, so no observer can see an empty frontier
// with zero fetches in flight while a popped row awaits its fetch (that
// window would make idle workers exit as if the crawl had stagnated).
func (sh *shard) checkout(c *Crawler) (relstore.RID, relstore.Tuple, bool, time.Time, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var now time.Time
	if c.politeOn {
		now = time.Now()
	}
	// The walk reads each row it passes; with politeness off the first
	// admits, so a checkout reads one row and writes it back.
	var (
		pop  frontierEntry
		row  relstore.Tuple
		wake time.Time
		err  error
	)
	sh.front.walk(func(e *frontierEntry) bool {
		var t relstore.Tuple
		if t, err = sh.crawl.Get(e.rid); err != nil {
			return true
		}
		if c.politeOn {
			ok, w := c.admitLocked(sh, t, now)
			noteWake(&wake, w)
			if !ok {
				return false
			}
		}
		pop, row = *e, t
		return true
	})
	if err != nil || row == nil {
		return relstore.RID{}, nil, false, wake, err
	}
	rid := pop.rid
	old := row.Clone()
	if c.checkoutHook != nil {
		c.checkoutHook(sh, old)
	}
	row[CStatus] = relstore.I32(StatusInflight)
	if err := sh.writeLocked(rid, old, row); err != nil {
		return relstore.RID{}, nil, false, wake, err
	}
	sh.front.delete(&pop.key)
	sh.inflightRows++
	c.inflight.Add(1)
	sh.frontierN.Add(-1)
	// Skipped rows stay in the set ahead of the popped one, so its first key
	// is the best remaining one either way.
	sh.recomputeHeadLocked()
	if c.politeOn {
		c.acquireHostLocked(sh, SIDOf(row[CURL].S), now)
		delete(sh.notBefore, row[COID].Int())
	}
	return rid, row, true, wake, nil
}

// boostLocked raises an unvisited, never-tried frontier row's relevance to
// boost (when currently lower) and republishes the head hint — the §3.4
// hub-neighbor policy update, applied shard by shard as the post-publish
// delta of an epoch. The directory entry rules out all but the frontier rows
// below boost, and only those are read. sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) boostLocked(oid int64, boost float64) error {
	d, ok := sh.rids[oid]
	if !ok || int32(d.status) != StatusFrontier || d.rel >= boost {
		return nil
	}
	row, err := sh.crawl.Get(d.rid())
	if err != nil || row[CTries].Int() != 0 {
		return err
	}
	return sh.raiseLocked(d.rid(), row, boost)
}

// raiseLocked sets the relevance of the frontier row at rid, which holds
// row, to rel — a raise — and re-keys it in the frontier set; sh.mu must be
// held. row is modified.
//
//focuslint:lock requires=shard
func (sh *shard) raiseLocked(rid relstore.RID, row relstore.Tuple, rel float64) error {
	from, err := frontierKeyOf(sh.policy, row)
	if err != nil {
		return err
	}
	old := row.Clone()
	row[CRel] = relstore.F64(rel)
	to, err := frontierKeyOf(sh.policy, row)
	if err != nil {
		return err
	}
	if err := sh.writeLocked(rid, old, row); err != nil {
		return err
	}
	return sh.rekeyLocked(from, to, rid)
}

// writeLocked rewrites the row at rid, which holds old, as row
// (relstore.Table.UpdateFrom) and mirrors its status and relevance into its
// directory entry; sh.mu must be held. Every update of a CRAWL row goes
// through it.
//
//focuslint:lock requires=shard
func (sh *shard) writeLocked(rid relstore.RID, old, row relstore.Tuple) error {
	if err := sh.crawl.UpdateFrom(rid, old, row); err != nil {
		return err
	}
	sh.rids[row[COID].Int()] = entryOf(rid, row)
	return nil
}

// lookupLocked finds the row for oid in this shard; sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) lookupLocked(oid int64) (relstore.RID, relstore.Tuple, bool, error) {
	d, ok := sh.rids[oid]
	if !ok {
		return relstore.RID{}, nil, false, nil
	}
	row, err := sh.crawl.Get(d.rid())
	if err != nil {
		return relstore.RID{}, nil, false, err
	}
	return d.rid(), row, true, nil
}

// CheckDirectory verifies every shard's in-memory state against a heap scan
// of its CRAWL partition, and then the LINK stripes' directories
// (linkgraph.Store.CheckDirectory). A shard's oid directory must hold one
// entry per row, each at that row's RID and carrying its status and
// relevance, the latter bit for bit. Its frontier set must be well
// formed and hold each StatusFrontier row exactly once, at its RID, under
// the policy's key, and no other row; its size must equal the frontier
// counter, and the published head must be its first key. Its visit log must
// hold exactly its StatusVisited rows, ascending by Seq, each entry with its
// row's oid, URL, class and relevance (bit for bit) and lastvisited = Seq;
// across the shards the Seqs must be exactly 1..visited. It takes one shard
// or stripe lock at a time, so it is exact on a crawl that is not running.
func (c *Crawler) CheckDirectory() error {
	var seqs []int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		err := sh.checkDirectoryLocked()
		for _, h := range sh.visits {
			seqs = append(seqs, h.Seq)
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	slices.Sort(seqs)
	if n := c.visited.Load(); int64(len(seqs)) != n {
		return fmt.Errorf("crawler: the visit logs hold %d visits, the visited counter says %d", len(seqs), n)
	}
	for i, seq := range seqs {
		if seq != int64(i+1) {
			return fmt.Errorf("crawler: the visit logs' sequence numbers are not 1..%d: position %d holds %d", len(seqs), i+1, seq)
		}
	}
	return c.links.CheckDirectory()
}

//focuslint:lock requires=shard
func (sh *shard) checkDirectoryLocked() error {
	if err := sh.front.check(); err != nil {
		return fmt.Errorf("crawler: shard %d: frontier set: %w", sh.id, err)
	}
	var frontier int
	visited := make(map[int64]HarvestPoint)
	err := sh.crawl.Scan(func(rid relstore.RID, t relstore.Tuple) (bool, error) {
		d, ok := sh.rids[t[COID].Int()]
		if !ok || d.rid() != rid {
			return true, fmt.Errorf("crawler: shard %d: oid %d lies at %v, directory has %v", sh.id, t[COID].Int(), rid, d.rid())
		}
		if want := entryOf(rid, t); d.status != want.status || math.Float64bits(d.rel) != math.Float64bits(want.rel) {
			return true, fmt.Errorf("crawler: shard %d: oid %d has status %d and relevance %v, directory has %d and %v",
				sh.id, t[COID].Int(), want.status, want.rel, d.status, d.rel)
		}
		if int32(t[CStatus].Int()) == StatusVisited {
			visited[t[COID].Int()] = HarvestPoint{
				Seq: t[CLast].Int(), OID: t[COID].Int(), URL: t[CURL].S,
				Relevance: t[CRel].Float(), Kcid: int32(t[CKcid].Int()),
			}
		}
		if int32(t[CStatus].Int()) != StatusFrontier {
			return false, nil
		}
		frontier++
		key, err := frontierKeyOf(sh.policy, t)
		if err != nil {
			return true, err
		}
		if at, ok := sh.front.find(&key); !ok || at != rid {
			return true, fmt.Errorf("crawler: shard %d: frontier row %d at %v is not in the frontier set under its key", sh.id, t[COID].Int(), rid)
		}
		return false, nil
	})
	if err != nil {
		return err
	}
	if n := sh.crawl.Rows(); int64(len(sh.rids)) != n {
		return fmt.Errorf("crawler: shard %d: directory holds %d oids for %d rows", sh.id, len(sh.rids), n)
	}
	if sh.front.Len() != frontier {
		return fmt.Errorf("crawler: shard %d: frontier set holds %d entries for %d frontier rows", sh.id, sh.front.Len(), frontier)
	}
	if n := sh.frontierN.Load(); n != int64(frontier) {
		return fmt.Errorf("crawler: shard %d: frontier counter says %d, the heap holds %d frontier rows", sh.id, n, frontier)
	}
	first, ok := sh.front.first()
	if h := sh.head.Load(); ok != (h != nil) || ok && *h != first.key {
		return fmt.Errorf("crawler: shard %d: published head is not the frontier set's first key", sh.id)
	}
	if len(sh.visits) != len(visited) {
		return fmt.Errorf("crawler: shard %d: visit log holds %d entries for %d visited rows", sh.id, len(sh.visits), len(visited))
	}
	for i, h := range sh.visits {
		if i > 0 && sh.visits[i-1].Seq >= h.Seq {
			return fmt.Errorf("crawler: shard %d: visit log is not ascending at entry %d: seq %d then %d", sh.id, i, sh.visits[i-1].Seq, h.Seq)
		}
		want, ok := visited[h.OID]
		if !ok || h.URL != want.URL || h.Seq != want.Seq || h.Kcid != want.Kcid ||
			math.Float64bits(h.Relevance) != math.Float64bits(want.Relevance) {
			return fmt.Errorf("crawler: shard %d: visit log entry %+v, its row reads %+v", sh.id, h, want)
		}
	}
	return nil
}
