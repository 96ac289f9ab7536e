package crawler

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"focus/internal/relstore"
)

// A shard owns one host-partition of the CRAWL relation: its own table
// (named CRAWL#<id>), its own in-memory oid directory, and its own B+tree
// priority index, all guarded by the shard mutex. Hosts are assigned to
// shards by hashing the server id (shardFor), so every URL of a server — and
// therefore that server's serverload accounting — lives in exactly one shard.
//
// Lock ordering: a goroutine holds at most one shard mutex at a time and may
// acquire the crawler's global mutex (harvest log, HUBS/AUTH, policy) while
// holding it; link stripe mutexes rank *below* shard mutexes (the link
// store's ingest callback reads a target's shard row under its stripe lock)
// and are never acquired while a shard or the global mutex is held outside
// the barrier. Whole-frontier operations (distillation, policy swaps,
// monitoring queries) take every link stripe lock, then every shard mutex,
// each in ascending id order, and the global mutex last — see
// Crawler.lockAll.
type shard struct {
	id int
	// Tower rank 20: above link stripes, below the global mutex. Table
	// operations under it may transitively reach buffer-pool channel waits
	// and disk I/O (that is the off-latch design), so only *direct* blocking
	// operations are banned in its critical sections.
	//focuslint:lock rank=shard order=20 noblockdirect=io,chan,sleep
	mu     sync.Mutex
	crawl  *relstore.Table
	policy Policy

	rids     map[int64]relstore.RID // oid directory: rows are never moved or deleted
	frontier *relstore.Index

	// serverSeen counts URLs seen per server id. Because a host maps to
	// exactly one shard, these counts equal the pre-shard global ones.
	serverSeen map[int32]int32
	insertSeq  int64 // per-shard FIFO sequence (cross-shard FIFO is relaxed)

	frontierN atomic.Int64 // checkable frontier rows (read without the lock)
	// inflightRows counts this shard's StatusInflight rows under mu, moved
	// where the status column is written; checkpoints sum it. Unlike the
	// crawler's inflight it drops when the row does, not at the end of complete.
	inflightRows int64

	// head publishes the priority key of this shard's current frontier
	// head (nil when empty), written only under mu and read lock-free by
	// checkout's shard selection, which pops from the shard whose head is
	// globally best. The hint may lag mutations by one checkout; that
	// bounded staleness only affects which shard is chosen, never the
	// within-shard order.
	head atomic.Pointer[[]byte]

	// Politeness state, guarded by mu and populated only when the
	// crawler's politeness/backoff features are on (see politeness.go).
	// A host maps to exactly one shard, so its token bucket and breaker
	// need no lock of their own. hosts holds per-server pacing and
	// breaker state; notBefore holds per-row retry eligibility times.
	hosts     map[int32]*hostState
	notBefore map[int64]time.Time
}

// newShard creates the shard's CRAWL partition table and priority index.
func newShard(db *relstore.DB, id int, policy Policy) (*shard, error) {
	sh := &shard{
		id: id, policy: policy,
		rids:       make(map[int64]relstore.RID),
		serverSeen: make(map[int32]int32),
		hosts:      make(map[int32]*hostState),
		notBefore:  make(map[int64]time.Time),
	}
	var err error
	if sh.crawl, err = db.CreateTable(fmt.Sprintf("CRAWL#%d", id), CrawlSchema()); err != nil {
		return nil, err
	}
	if sh.frontier, err = sh.crawl.AddIndex("frontier", policy.Key); err != nil {
		return nil, err
	}
	return sh, nil
}

// shardFor maps a server id to its home shard. The mapping is a pure
// function of the sid and the shard count, so a host is stable for the
// lifetime of a crawl and LINK rows (which carry sid_dst) locate the
// target's shard without a URL in hand.
func (c *Crawler) shardFor(sid int32) *shard {
	return c.shards[int(uint32(sid)%uint32(len(c.shards)))]
}

// lockAll acquires every link stripe mutex, then every shard mutex, each in
// ascending id order, and then the global mutex — the stop-the-world
// barrier used by distillation snapshots, policy swaps, and cross-shard
// monitoring queries. Stripes come first because they rank lowest in the
// lock order: an ingesting worker holding a stripe lock may be waiting for
// a shard lock, so taking stripes before shards lets it drain.
//
//focuslint:lock sequence=stripe*,shard*,global exit=held
func (c *Crawler) lockAll() {
	c.links.LockAll()
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	c.mu.Lock()
}

// unlockAll releases the barrier in reverse order.
//
//focuslint:lock releases=global,shard*,stripe*
func (c *Crawler) unlockAll() {
	c.mu.Unlock()
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
	c.links.UnlockAll()
}

// insertFrontierLocked adds a URL to the shard's CRAWL partition if absent;
// sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) insertFrontierLocked(url string, rel float64) error {
	oid := OIDOf(url)
	if _, ok := sh.rids[oid]; ok {
		return nil
	}
	return sh.insertNewLocked(oid, SIDOf(url), url, rel)
}

// insertNewLocked adds the frontier row of a URL the caller has just found
// absent from the shard, under the same hold of sh.mu; oid and sid are the
// URL's hashes (OIDOf, SIDOf), which the caller has in hand.
//
//focuslint:lock requires=shard
func (sh *shard) insertNewLocked(oid int64, sid int32, url string, rel float64) error {
	sh.serverSeen[sid]++
	sh.insertSeq++
	row := relstore.Tuple{
		relstore.I64(oid),
		relstore.Str(url),
		relstore.F64(rel),
		relstore.I32(0),
		relstore.I32(sh.serverSeen[sid]),
		relstore.I64(0),
		relstore.I32(0),
		relstore.I32(StatusFrontier),
		relstore.I64(sh.insertSeq),
	}
	rid, err := sh.crawl.Insert(row)
	if err == nil {
		sh.rids[oid] = rid
		sh.frontierN.Add(1)
		sh.improveHeadLocked(sh.policy.Key(row))
	}
	return err
}

// improveHeadLocked lowers the published head hint to key if it is better;
// sh.mu must be held. Valid for mutations that can only add rows or raise
// a row's priority (inserts, retry re-entries, relevance bumps).
//
//focuslint:lock requires=shard
func (sh *shard) improveHeadLocked(key []byte) {
	if h := sh.head.Load(); h == nil || bytes.Compare(key, *h) < 0 {
		k := append([]byte(nil), key...)
		sh.head.Store(&k)
	}
}

// recomputeHeadLocked rescans the frontier index for the true head (after
// a removal or an index rebuild); sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) recomputeHeadLocked() error {
	prefix := relstore.EncodeKey(relstore.I32(StatusFrontier))
	var head *[]byte
	err := sh.frontier.ScanPrefix(prefix, func(k []byte, _ relstore.RID) (bool, error) {
		kk := append([]byte(nil), k...)
		head = &kk
		return true, nil
	})
	if err != nil {
		return err
	}
	sh.head.Store(head)
	return nil
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
	prefix := relstore.EncodeKey(relstore.I32(StatusFrontier))
	// One index scan serves both the pop and the head hint: the key right
	// after the popped row is the shard's head once the pop commits (unless
	// a better row was skipped), so no fresh B+tree descent per checkout.
	// Exactness is preserved: sh.mu is held, so no mutation can interleave
	// between the scan and the hint store.
	var (
		rid                relstore.RID
		row                relstore.Tuple
		found              bool
		wake               time.Time
		firstSkipped, next *[]byte
	)
	err := sh.frontier.ScanPrefix(prefix, func(k []byte, r relstore.RID) (bool, error) {
		if found {
			kk := append([]byte(nil), k...)
			next = &kk
			return true, nil
		}
		t, err := sh.crawl.Get(r)
		if err != nil {
			return true, err
		}
		if c.politeOn {
			ok, w := c.admitLocked(sh, t, now)
			noteWake(&wake, w)
			if !ok {
				if firstSkipped == nil {
					kk := append([]byte(nil), k...)
					firstSkipped = &kk
				}
				return false, nil
			}
		}
		rid, row, found = r, t, true
		return false, nil
	})
	if err != nil || !found {
		return relstore.RID{}, nil, false, wake, err
	}
	old := row.Clone()
	if c.checkoutHook != nil {
		c.checkoutHook(sh, old)
	}
	row[CStatus] = relstore.I32(StatusInflight)
	if err := sh.crawl.UpdateFrom(rid, old, row); err != nil {
		return relstore.RID{}, nil, false, wake, err
	}
	sh.inflightRows++
	c.inflight.Add(1)
	sh.frontierN.Add(-1)
	// Skipped rows sort before the popped one, so the best remaining
	// frontier key is the first skip when there was one.
	if firstSkipped != nil {
		sh.head.Store(firstSkipped)
	} else {
		sh.head.Store(next)
	}
	if c.politeOn {
		c.acquireHostLocked(sh, SIDOf(row[CURL].S), now)
		delete(sh.notBefore, row[COID].Int())
	}
	return rid, row, true, wake, nil
}

// boostLocked raises an unvisited, never-tried frontier row's relevance to
// boost (when currently lower) and republishes the head hint — the §3.4
// hub-neighbor policy update, applied shard by shard as the post-publish
// delta of an epoch. sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) boostLocked(oid int64, boost float64) error {
	rid, row, ok, err := sh.lookupLocked(oid)
	if err != nil || !ok {
		return err
	}
	if int32(row[CStatus].Int()) == StatusFrontier &&
		row[CTries].Int() == 0 &&
		row[CRel].Float() < boost {
		old := row.Clone()
		row[CRel] = relstore.F64(boost)
		if err := sh.crawl.UpdateFrom(rid, old, row); err != nil {
			return err
		}
		sh.improveHeadLocked(sh.policy.Key(row))
	}
	return nil
}

// statusRelLocked reads the status and relevance of the row at rid where
// they lie on its heap page, decoding nothing else; sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) statusRelLocked(rid relstore.RID) (status int32, rel float64, err error) {
	var v [2]relstore.Value
	err = sh.crawl.ReadCols(rid, []int{CStatus, CRel}, v[:])
	return int32(v[0].Int()), v[1].Float(), err
}

// lookupLocked finds the row for oid in this shard; sh.mu must be held.
//
//focuslint:lock requires=shard
func (sh *shard) lookupLocked(oid int64) (relstore.RID, relstore.Tuple, bool, error) {
	rid, ok := sh.rids[oid]
	if !ok {
		return relstore.RID{}, nil, false, nil
	}
	row, err := sh.crawl.Get(rid)
	if err != nil {
		return relstore.RID{}, nil, false, err
	}
	return rid, row, true, nil
}

// CheckDirectory verifies every shard's oid directory against a heap scan of
// its CRAWL partition — one entry per row, each at that row's RID — and then
// the LINK stripes' in-edge directories (linkgraph.Store.CheckDirectory). It
// takes one shard or stripe lock at a time, so it is exact on a crawl that is
// not running.
func (c *Crawler) CheckDirectory() error {
	for _, sh := range c.shards {
		sh.mu.Lock()
		err := sh.crawl.ScanCols([]int{COID}, func(rid relstore.RID, v []relstore.Value) (bool, error) {
			if at, ok := sh.rids[v[0].Int()]; !ok || at != rid {
				return true, fmt.Errorf("crawler: shard %d: oid %d lies at %v, directory has %v", sh.id, v[0].Int(), rid, at)
			}
			return false, nil
		})
		if n := sh.crawl.Rows(); err == nil && int64(len(sh.rids)) != n {
			err = fmt.Errorf("crawler: shard %d: directory holds %d oids for %d rows", sh.id, len(sh.rids), n)
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return c.links.CheckDirectory()
}

// scanAllLocked visits every CRAWL row across all shards. The barrier must
// be held.
//
//focuslint:lock requires=stripe*,shard*,global
func (c *Crawler) scanAllLocked(fn func(sh *shard, rid relstore.RID, t relstore.Tuple) (bool, error)) error {
	for _, sh := range c.shards {
		err := sh.crawl.Scan(func(rid relstore.RID, t relstore.Tuple) (bool, error) {
			return fn(sh, rid, t)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// scanColsAllLocked is scanAllLocked for a query that reads only fixed-width
// columns: vals[i] holds column cols[i], read where it lies on the heap page
// (relstore.Table.ScanCols), so no URL is decoded. The barrier must be held.
//
//focuslint:lock requires=stripe*,shard*,global
func (c *Crawler) scanColsAllLocked(cols []int, fn func(vals []relstore.Value)) error {
	for _, sh := range c.shards {
		err := sh.crawl.ScanCols(cols, func(_ relstore.RID, vals []relstore.Value) (bool, error) {
			fn(vals)
			return false, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
