package relstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ReplacementPolicy selects the buffer pool's victim strategy.
type ReplacementPolicy int

// Available replacement policies. Clock is the default; LRU exists for the
// ablation benchmark on classifier probe locality.
const (
	PolicyClock ReplacementPolicy = iota
	PolicyLRU
)

// ErrPoolExhausted is returned when a new page is needed and no frame of the
// page's shard can be claimed; the error wrapping it says which case it is.
// Every frame is pinned: an iterator leak or an absurdly small pool. Or the
// unpinned ones all hold dirty pages the write-back guard (BufferPool.held)
// refuses: operations dirtied more such pages than the shard has frames.
var ErrPoolExhausted = errors.New("relstore: buffer pool exhausted")

// An all-pinned shard is retried with exponential backoff before giving up:
// pins are transient (B+tree descents and heap scans unpin within
// microseconds), so a momentary pile-up on one shard — even one whose pinner
// the scheduler has parked for a few milliseconds — must not fail the caller.
// Exhaustion by genuinely leaked pins still errors once the full backoff
// budget (~60 ms) is spent.
const (
	victimRetries    = 40
	victimRetryDelay = 20 * time.Microsecond // doubled per attempt
	victimRetryMax   = 2 * time.Millisecond
)

// victimBackoff is the sleep before retry number attempt.
func victimBackoff(attempt int) time.Duration {
	d := victimRetryDelay
	for i := 0; i < attempt && d < victimRetryMax; i++ {
		d *= 2
	}
	if d > victimRetryMax {
		d = victimRetryMax
	}
	return d
}

// Frame is a buffer-pool slot holding one page image. Callers receive a
// pinned *Frame from Fetch/NewPage and must Unpin it exactly once. The image
// is allocated the first time the frame is claimed, so a pool's memory
// follows the pages it has held, up to its frame count.
//
// Field synchronization: pid, valid, used, loading, and loadErr are guarded
// by the owning shard's latch (loadErr is additionally published to load
// waiters by the loading channel's close); pin, ref, and dirty are atomics
// so the hit-side operations that only touch them — Unpin above all — never
// take the latch. All pin *increments* happen under the shard latch, which
// is what makes the latch-held "pin == 0, claim this frame" victim check
// sound; decrements are latch-free.
type Frame struct {
	pid     PageID
	data    []byte
	dirty   atomic.Bool
	pin     atomic.Int32
	ref     atomic.Bool // clock reference bit
	used    int64       // LRU timestamp
	valid   bool
	loading chan struct{} // non-nil while a disk read is in flight; closed on publish
	loadErr error         // valid once loading is closed
}

// PID returns the page this frame currently holds.
func (f *Frame) PID() PageID { return f.pid }

// Data returns the frame's page image. Valid only while pinned.
func (f *Frame) Data() []byte { return f.data }

// BufStats aggregates buffer pool activity since the last reset. A fetch
// that waits on another fetcher's in-flight read of the same page counts as
// a hit: it cost no disk read of its own.
type BufStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// poolShard owns a partition of the page table and frame pool: its own
// latch, clock hand, LRU tick, and counters. A page maps to exactly one
// shard (hash(PageID) % Shards), so a frame in a shard only ever holds
// pages of that shard and cross-shard coordination is never needed.
type poolShard struct {
	// The shard latch. In the hot path (claim) no disk I/O, channel wait, or
	// sleep may run while it is held — the off-latch contract. The quiesced
	// maintenance paths (FlushAll, Resize) intentionally violate it and carry
	// explained suppressions.
	//focuslint:lock rank=poollatch leaf noblock=io,chan,sleep
	mu     sync.Mutex
	frames []*Frame
	table  map[PageID]*Frame
	// flushing tracks eviction write-backs in flight off the latch: while a
	// victim's dirty image is on its way to disk, a re-fetch of that page
	// must wait here rather than read the stale on-disk bytes.
	flushing map[PageID]chan struct{}
	hand     int
	tick     int64
	policy   ReplacementPolicy

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// BufferPool caches disk pages in a fixed number of PageSize frames, exactly
// the structure whose size the paper sweeps in Figure 8(b). The pool is safe
// for concurrent use; see the package doc for the page-content contract
// (readers may share a pinned frame, writers of a page serialize externally,
// distinct tables need no coordination).
//
// The pool is partitioned into Shards independent shards (Postgres buffer
// mapping partitions, InnoDB buffer pool instances), one by default. Each
// shard has its own latch and, on a miss, the victim frame is published in
// a *loading* state and the latch is released before disk.ReadPage runs:
// concurrent fetchers of the same page wait on that frame (single-flight —
// exactly one physical read per page), while hits and misses on every other
// page proceed untouched.
type BufferPool struct {
	disk    DiskManager
	shards  []*poolShard
	nframes atomic.Int64 // total frames; lock-free NumFrames, updated by Resize
	// held, when set (OpenDurable sets durableState.liveAtLast), is the
	// write-back guard: a dirty page it reports true for is no eviction
	// victim and reaches disk only through FlushAll or Resize. Called under
	// the poollatch leaf and, latch-free, from Unpin: it must not block.
	held func(PageID) bool
	// heldDirty counts the resident dirty pages held refuses: markDirty
	// raises it, markClean lowers it, eviction never claims a counted page.
	heldDirty atomic.Int64
}

// NewBufferPool creates a single-shard pool with the given number of frames
// (minimum 4).
func NewBufferPool(disk DiskManager, frames int) *BufferPool {
	return NewBufferPoolSharded(disk, frames, 1)
}

// NewBufferPoolSharded creates a pool of `frames` total frames partitioned
// into `shards` shards. Frames are distributed as evenly as possible, every
// shard getting at least one; frames is raised to max(4, shards).
func NewBufferPoolSharded(disk DiskManager, frames, shards int) *BufferPool {
	if shards < 1 {
		shards = 1
	}
	if frames < 4 {
		frames = 4
	}
	if frames < shards {
		frames = shards
	}
	bp := &BufferPool{disk: disk, shards: make([]*poolShard, shards)}
	base, rem := frames/shards, frames%shards
	for i := range bp.shards {
		n := base
		if i < rem {
			n++
		}
		sh := &poolShard{
			table:    make(map[PageID]*Frame, n),
			flushing: make(map[PageID]chan struct{}),
			frames:   make([]*Frame, n),
		}
		for j := range sh.frames {
			sh.frames[j] = &Frame{}
		}
		bp.shards[i] = sh
	}
	bp.nframes.Store(int64(frames))
	return bp
}

// shard maps a page to its owning shard.
func (bp *BufferPool) shard(pid PageID) *poolShard {
	if len(bp.shards) == 1 {
		return bp.shards[0]
	}
	// Fibonacci hashing: consecutive page ids (a heap chain, a B+tree built
	// by appends) spread across shards instead of marching through one.
	h := uint32(pid) * 0x9E3779B1
	h ^= h >> 16
	return bp.shards[h%uint32(len(bp.shards))]
}

// Shards returns the number of pool shards.
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// SetPolicy selects the replacement policy (safe before heavy use).
func (bp *BufferPool) SetPolicy(p ReplacementPolicy) {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		sh.policy = p
		sh.mu.Unlock()
	}
}

// Disk returns the underlying disk manager.
func (bp *BufferPool) Disk() DiskManager { return bp.disk }

// NumFrames returns the pool capacity in frames, lock-free.
func (bp *BufferPool) NumFrames() int { return int(bp.nframes.Load()) }

// HeldDirty returns, lock-free, how many resident pages are dirty and may not
// be written back before the next FlushAll: none on a pool without a guard;
// a durable crawl checkpoints when they reach half of NumFrames.
func (bp *BufferPool) HeldDirty() int { return int(bp.heldDirty.Load()) }

// markDirty and markClean write a frame's dirty bit everywhere but in claim's
// retag of a victim (never a counted page), so heldDirty moves on exactly the
// transitions of held pages. The caller holds a pin on f or the shard latch.
func (bp *BufferPool) markDirty(f *Frame) {
	if !f.dirty.Swap(true) && bp.held != nil && bp.held(f.pid) {
		bp.heldDirty.Add(1)
	}
}

func (bp *BufferPool) markClean(f *Frame) {
	if f.dirty.Swap(false) && bp.held != nil && bp.held(f.pid) {
		bp.heldDirty.Add(-1)
	}
}

// Stats returns the pool counters aggregated across shards.
func (bp *BufferPool) Stats() BufStats {
	var s BufStats
	for _, sh := range bp.shards {
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Evictions += sh.evictions.Load()
	}
	return s
}

// ShardStats returns one BufStats per shard, in shard order — the skew view
// behind the Stats() aggregate.
func (bp *BufferPool) ShardStats() []BufStats {
	out := make([]BufStats, len(bp.shards))
	for i, sh := range bp.shards {
		out[i] = BufStats{
			Hits:      sh.hits.Load(),
			Misses:    sh.misses.Load(),
			Evictions: sh.evictions.Load(),
		}
	}
	return out
}

// ResetStats zeroes the pool counters.
func (bp *BufferPool) ResetStats() {
	for _, sh := range bp.shards {
		sh.hits.Store(0)
		sh.misses.Store(0)
		sh.evictions.Store(0)
	}
}

// Fetch pins the frame holding pid, reading it from disk on a miss.
func (bp *BufferPool) Fetch(pid PageID) (*Frame, error) {
	return bp.claim(pid, false)
}

// NewPage allocates a fresh zeroed page and returns it pinned and dirty.
func (bp *BufferPool) NewPage() (*Frame, error) {
	pid, err := bp.disk.Allocate()
	if err != nil {
		return nil, err
	}
	return bp.claim(pid, true)
}

// claim is the pool's one miss protocol, shared by Fetch and NewPage: wait
// out any write-back of pid still in flight, claim a victim, publish it in
// loading state, release the latch, write back the victim's dirty image and
// fill the frame, then publish the result. Concurrent fetchers of the same
// page wait on the loading frame; everything else proceeds. A fresh page
// (NewPage) differs only in the fill: it cannot be resident, is zeroed
// rather than read, starts dirty, and counts no miss.
func (bp *BufferPool) claim(pid PageID, fresh bool) (*Frame, error) {
	sh := bp.shard(pid)
	var f *Frame
	for attempt := 0; ; attempt++ {
		sh.mu.Lock()
		for {
			if g, ok := sh.table[pid]; ok && !fresh {
				if ch := g.loading; ch != nil {
					// Single-flight: another fetcher's read of pid is in
					// flight. Pin now — under the latch, so the frame cannot
					// be victimized — then wait off-latch for the publish.
					g.pin.Add(1)
					sh.mu.Unlock()
					<-ch
					if err := g.loadErr; err != nil {
						g.pin.Add(-1)
						return nil, err
					}
					g.ref.Store(true)
					sh.hits.Add(1)
					return g, nil
				}
				g.pin.Add(1)
				g.ref.Store(true)
				sh.tick++
				g.used = sh.tick
				sh.hits.Add(1)
				sh.mu.Unlock()
				return g, nil
			}
			ch, busy := sh.flushing[pid]
			if !busy {
				break
			}
			// pid's latest bytes are still being written back by an
			// eviction; reading the on-disk image now would resurrect the
			// stale version, and for a reallocated pid the late write would
			// overwrite the new page. Wait for the flush, then re-check.
			sh.mu.Unlock()
			<-ch
			sh.mu.Lock()
		}
		f = sh.pickVictimLocked(bp.held)
		if f != nil {
			break // latch still held
		}
		var err error
		if attempt >= victimRetries {
			err = sh.exhaustedLocked()
		}
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
		time.Sleep(victimBackoff(attempt))
	}
	if !fresh {
		sh.misses.Add(1)
	}
	oldPid := f.pid
	oldDirty := f.valid && f.dirty.Load()
	if f.valid {
		sh.evictions.Add(1)
		delete(sh.table, oldPid)
	}
	var flushCh chan struct{}
	if oldDirty {
		flushCh = make(chan struct{})
		sh.flushing[oldPid] = flushCh
	}
	loadCh := make(chan struct{})
	f.dirty.Store(false) // the victim was clean or dirty and not held: nothing counted
	f.pid = pid
	f.valid = true
	if fresh {
		bp.markDirty(f)
	}
	f.pin.Store(1)
	f.ref.Store(true)
	sh.tick++
	f.used = sh.tick
	f.loading = loadCh
	f.loadErr = nil
	sh.table[pid] = f
	sh.mu.Unlock()

	if oldDirty {
		if err := bp.disk.WritePage(oldPid, f.data); err != nil {
			// The victim's bytes are intact in the frame; remap it under its
			// old identity so the dirty page is not lost, and fail the load
			// (waiters observe loadErr and drop their pins).
			sh.mu.Lock()
			delete(sh.table, pid)
			delete(sh.flushing, oldPid)
			sh.table[oldPid] = f
			bp.markClean(f) // a fresh pid may have been counted
			f.pid = oldPid
			f.valid = true
			f.dirty.Store(true)
			f.loading = nil
			f.loadErr = err
			f.pin.Add(-1)
			sh.mu.Unlock()
			close(flushCh)
			close(loadCh)
			return nil, err
		}
	}
	if f.data == nil {
		f.data = make([]byte, PageSize) // the frame's first use
	}
	var rerr error
	if fresh {
		clear(f.data)
	} else {
		rerr = bp.disk.ReadPage(pid, f.data)
	}
	sh.mu.Lock()
	if oldDirty {
		delete(sh.flushing, oldPid)
	}
	f.loading = nil
	f.loadErr = rerr
	if rerr != nil {
		delete(sh.table, pid)
		f.valid = false
		f.pin.Add(-1)
	}
	sh.mu.Unlock()
	if oldDirty {
		close(flushCh)
	}
	close(loadCh)
	if rerr != nil {
		return nil, rerr
	}
	return f, nil
}

// FreePage returns pid to the disk manager's free list. If the page is
// resident its frame is invalidated without flushing — the contents are
// dead, and a later flush would race with whoever reuses the page. Freeing
// a pinned page is an error (some iterator still holds it).
func (bp *BufferPool) FreePage(pid PageID) error {
	sh := bp.shard(pid)
	sh.mu.Lock()
	for {
		// An eviction may still be writing pid's old image back; let it
		// finish, or the disk manager would see a write of a freed page.
		ch, busy := sh.flushing[pid]
		if !busy {
			break
		}
		sh.mu.Unlock()
		<-ch
		sh.mu.Lock()
	}
	if f, ok := sh.table[pid]; ok {
		if f.pin.Load() > 0 {
			sh.mu.Unlock()
			return fmt.Errorf("relstore: free of pinned page %d", pid)
		}
		delete(sh.table, pid)
		f.valid = false
		bp.markClean(f)
	}
	sh.mu.Unlock()
	return bp.disk.Free(pid)
}

// Unpin releases one pin on f, marking the page dirty if it was modified.
// It is latch-free: the dirty bit and pin count are atomics, and the store
// order (dirty before pin) is what lets an evictor that observes pin == 0
// under the shard latch also observe the dirty bit and the page bytes the
// pinner wrote.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	if dirty {
		bp.markDirty(f)
	}
	if f.pin.Add(-1) < 0 {
		panic(fmt.Sprintf("relstore: unpin of unpinned page %d", f.pid))
	}
}

// pickVictimLocked finds an unpinned frame by the shard's policy, without
// flushing or invalidating it. Caller holds sh.mu. A dirty frame whose page
// held (the pool's guard, nil for none) refuses is passed over; unpinned, its
// dirty bit cannot change under the latch. Returns nil if all are pinned or held.
func (sh *poolShard) pickVictimLocked(held func(PageID) bool) *Frame {
	switch sh.policy {
	case PolicyLRU:
		var best *Frame
		for _, c := range sh.frames {
			if c.pin.Load() > 0 {
				continue
			}
			if !c.valid {
				return c
			}
			if held != nil && c.dirty.Load() && held(c.pid) {
				continue
			}
			if best == nil || c.used < best.used {
				best = c
			}
		}
		return best
	default: // clock
		n := len(sh.frames)
		for i := 0; i < 2*n+1; i++ {
			c := sh.frames[sh.hand]
			sh.hand = (sh.hand + 1) % n
			if c.pin.Load() > 0 {
				continue
			}
			if !c.valid {
				return c
			}
			if held != nil && c.dirty.Load() && held(c.pid) {
				continue
			}
			if c.ref.Load() {
				c.ref.Store(false)
				continue
			}
			return c
		}
		return nil
	}
}

// exhaustedLocked says why pickVictimLocked found nothing. Caller holds sh.mu.
func (sh *poolShard) exhaustedLocked() error {
	pinned := 0
	for _, c := range sh.frames {
		if c.pin.Load() > 0 {
			pinned++
		}
	}
	if pinned == len(sh.frames) {
		return fmt.Errorf("%w: all %d frames pinned", ErrPoolExhausted, pinned)
	}
	return fmt.Errorf("%w: %d of %d frames pinned, the others hold dirty pages that may not be written back before the next checkpoint",
		ErrPoolExhausted, pinned, len(sh.frames))
}

// DirtyPages returns the ids of every dirty resident page, sorted: the pages
// whose on-disk image is stale. The checkpoint journals the subset of them
// that the previous checkpoint still references — the ones the durable guard
// kept off the disk — before FlushAll overwrites them.
func (bp *BufferPool) DirtyPages() []PageID {
	var out []PageID
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.loading == nil && f.valid && f.dirty.Load() {
				out = append(out, f.pid)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FlushAll writes every dirty resident page back to disk. Frames mid-load
// (misses in flight) are skipped: their images are owned by the
// loader and are not dirty yet.
func (bp *BufferPool) FlushAll() error {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.loading != nil {
				continue
			}
			if f.valid && f.dirty.Load() {
				//focuslint:ignore offlatch FlushAll is a quiesced maintenance path (checkpoints, benchmarks); latch-held writes are acceptable there
				if err := bp.disk.WritePage(f.pid, f.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				bp.markClean(f)
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// Resize flushes the pool and rebuilds it with n total frames (same shard
// count). Used by the Figure 8(b) memory-scaling sweep and to cool the pool
// between benchmark phases. All pages must be unpinned; callers quiesce the
// pool first, and any straggling eviction write-backs are drained.
func (bp *BufferPool) Resize(n int) error {
	if n < 4 {
		n = 4
	}
	if n < len(bp.shards) {
		n = len(bp.shards)
	}
	base, rem := n/len(bp.shards), n%len(bp.shards)
	for i, sh := range bp.shards {
		sh.mu.Lock()
		for len(sh.flushing) > 0 {
			var ch chan struct{}
			for _, c := range sh.flushing {
				ch = c
				break
			}
			sh.mu.Unlock()
			<-ch
			sh.mu.Lock()
		}
		for _, f := range sh.frames {
			if f.pin.Load() > 0 {
				sh.mu.Unlock()
				return fmt.Errorf("relstore: resize with pinned page %d", f.pid)
			}
			if f.valid && f.dirty.Load() {
				//focuslint:ignore offlatch Resize runs only on a quiesced pool (callers drain pins first); latch-held writes are acceptable there
				if err := bp.disk.WritePage(f.pid, f.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				bp.markClean(f)
			}
		}
		cnt := base
		if i < rem {
			cnt++
		}
		sh.frames = make([]*Frame, cnt)
		for j := range sh.frames {
			sh.frames[j] = &Frame{}
		}
		sh.table = make(map[PageID]*Frame, cnt)
		sh.hand = 0
		sh.mu.Unlock()
	}
	bp.nframes.Store(int64(n))
	return nil
}
