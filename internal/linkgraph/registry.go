package linkgraph

import "sync"

// regShards is the partition count of the dst registry. It bounds lock
// contention between ingesters registering destinations and sweeps reading
// masks; 64 keeps a shard's map small without making the registry's fixed
// footprint noticeable.
const regShards = 64

// dstRegistry records, for every oid_dst ever ingested, the set of stripes
// holding at least one edge into it — the routing table of the dst-routed
// incoming-weight sweep. Before the registry, UpdateIncomingFwd locked and
// probed every stripe per visit, so the per-visit cost grew linearly with the
// stripe count even though most stripes hold no edge into the page; with it a
// sweep touches only the stripes the mask names.
//
// The registry is sharded by hash(dst) under its own mutexes because writers
// on different stripes (whose stripe locks do not exclude each other) may
// register the same dst concurrently. Registry locks sit outside the lock
// tower as pure leaves: they may be taken while holding a stripe lock
// (applyLocked registers under its stripe mutex) or while holding nothing
// (a sweep's mask read), and nothing is ever acquired while one is held —
// in particular, sweeps copy the mask out and release the registry lock
// before locking any stripe — so no cycle can involve them.
//
// Masks only ever gain bits: edges are never deleted, so a set bit stays
// true for the life of the store, and a mask read is at worst a superset of
// the stripes that held edges at some earlier instant — never a subset of
// the stripes that matter, thanks to the registration-before-weight-callback
// ordering documented on Store.Apply.
type dstRegistry struct {
	words  int // uint64 words per mask: (stripes + 63) / 64
	shards [regShards]regShard
}

type regShard struct {
	// Pure leaf: taken under stripe locks (applyLocked) or under nothing (a
	// sweep's mask read); nothing may be acquired and no blocking operation
	// may run while it is held.
	//focuslint:lock rank=registry leaf noblock=io,chan,sleep
	mu sync.Mutex
	// one holds single-word masks (stripes <= 64, the overwhelmingly common
	// configuration — no per-dst slice allocation); many holds multi-word
	// masks. Exactly one of the two is used per registry.
	one  map[int64]uint64
	many map[int64][]uint64
}

func newDstRegistry(stripes int) *dstRegistry {
	r := &dstRegistry{words: (stripes + 63) / 64}
	for i := range r.shards {
		if r.words == 1 {
			r.shards[i].one = make(map[int64]uint64)
		} else {
			r.shards[i].many = make(map[int64][]uint64)
		}
	}
	return r
}

func (r *dstRegistry) shardOf(dst int64) *regShard {
	return &r.shards[uint64(dst)%regShards]
}

// add marks stripe as holding an edge into dst. Idempotent; called at
// ingest under the edge's stripe lock, before the stripe runs any weight
// callback for the batch.
func (r *dstRegistry) add(dst int64, stripe int) {
	sh := r.shardOf(dst)
	sh.mu.Lock()
	if r.words == 1 {
		sh.one[dst] |= 1 << uint(stripe)
	} else {
		m := sh.many[dst]
		if m == nil {
			m = make([]uint64, r.words)
			sh.many[dst] = m
		}
		m[stripe/64] |= 1 << uint(stripe%64)
	}
	sh.mu.Unlock()
}

// snapshot appends dst's current stripe mask to buf and returns it (nil if
// dst was never ingested). The copy is taken so the caller can walk the
// mask and lock stripes without holding the registry lock.
func (r *dstRegistry) snapshot(dst int64, buf []uint64) []uint64 {
	sh := r.shardOf(dst)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.words == 1 {
		m, ok := sh.one[dst]
		if !ok {
			return nil
		}
		return append(buf, m)
	}
	m := sh.many[dst]
	if m == nil {
		return nil
	}
	return append(buf, m...)
}
