package relstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPoolExhausted is returned when a new page is needed and no frame of the
// pool can be claimed; the error wrapping it says which case it is. Every
// frame is pinned: an iterator leak or an absurdly small pool. Or the
// unpinned ones all hold dirty pages the write-back guard (BufferPool.held)
// refuses: operations dirtied more such pages than the pool has frames.
var ErrPoolExhausted = errors.New("relstore: buffer pool exhausted")

// An all-pinned pool is retried with exponential backoff before giving up:
// pins are transient (B+tree descents and heap scans unpin within
// microseconds), so a momentary pile-up of pins — even one whose pinner the
// scheduler has parked for a few milliseconds — must not fail the caller.
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
// Field synchronization: pid, valid, loading, and loadErr are guarded by the
// pool latch (loadErr is additionally published to load waiters by the
// loading channel's close); pin, ref, and dirty are atomics so the hit-side
// operations that only touch them — Unpin above all — never take the latch.
// All pin *increments* happen under the pool latch, which is what makes the
// latch-held "pin == 0, claim this frame" victim check sound; decrements are
// latch-free.
type Frame struct {
	pid     PageID
	data    []byte
	dirty   atomic.Bool
	pin     atomic.Int32
	ref     atomic.Bool // clock reference bit
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

// BufferPool caches disk pages in a fixed number of PageSize frames, exactly
// the structure whose size the paper sweeps in Figure 8(b), replaced by the
// clock algorithm. The pool is safe for concurrent use; see the package doc
// for the page-content contract (readers may share a pinned frame, writers
// of a page serialize externally, distinct tables need no coordination).
//
// One latch guards the page table, the frames' identities and the clock
// hand. On a miss the victim frame is published in a *loading* state and the
// latch is released before disk.ReadPage runs: concurrent fetchers of the
// same page wait on that frame (single-flight — exactly one physical read
// per page), while hits and misses on every other page proceed untouched.
type BufferPool struct {
	disk DiskManager

	// The pool latch. In the hot path (claim) no disk I/O, channel wait, or
	// sleep may run while it is held — the off-latch contract. FlushAll, a
	// quiesced maintenance path, intentionally violates it and carries an
	// explained suppression.
	//focuslint:lock rank=poollatch leaf noblock=io,chan,sleep
	mu     sync.Mutex
	frames []*Frame
	table  map[PageID]*Frame
	// flushing tracks eviction write-backs in flight off the latch: while a
	// victim's dirty image is on its way to disk, a re-fetch of that page
	// must wait here rather than read the stale on-disk bytes.
	flushing map[PageID]chan struct{}
	hand     int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// held, when set (OpenDurable sets durableState.liveAtLast), is the
	// write-back guard: a dirty page it reports true for is no eviction
	// victim and reaches disk only through FlushAll. Called under the
	// poollatch leaf and, latch-free, from Unpin: it must not block.
	held func(PageID) bool
	// heldDirty counts the resident dirty pages held refuses: markDirty
	// raises it, markClean lowers it, eviction never claims a counted page.
	heldDirty atomic.Int64
}

// NewBufferPool creates a pool with the given number of frames (minimum 4).
// The page table grows with the resident pages: a durable crawl's 16 384
// frames hold ~800 pages, and a table sized for all of them is 580 KB that
// no lookup reaches.
func NewBufferPool(disk DiskManager, frames int) *BufferPool {
	if frames < 4 {
		frames = 4
	}
	bp := &BufferPool{
		disk:     disk,
		frames:   make([]*Frame, frames),
		table:    make(map[PageID]*Frame),
		flushing: make(map[PageID]chan struct{}),
	}
	for i := range bp.frames {
		bp.frames[i] = &Frame{}
	}
	return bp
}

// Disk returns the underlying disk manager.
func (bp *BufferPool) Disk() DiskManager { return bp.disk }

// NumFrames returns the pool capacity in frames.
func (bp *BufferPool) NumFrames() int { return len(bp.frames) }

// HeldDirty returns, lock-free, how many resident pages are dirty and may not
// be written back before the next FlushAll: none on a pool without a guard;
// a durable crawl checkpoints when they reach half of NumFrames.
func (bp *BufferPool) HeldDirty() int { return int(bp.heldDirty.Load()) }

// markDirty and markClean write a frame's dirty bit everywhere but in claim's
// retag of a victim (never a counted page), so heldDirty moves on exactly the
// transitions of held pages. The caller holds a pin on f or the pool latch.
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

// Stats returns the pool counters.
func (bp *BufferPool) Stats() BufStats {
	return BufStats{
		Hits:      bp.hits.Load(),
		Misses:    bp.misses.Load(),
		Evictions: bp.evictions.Load(),
	}
}

// ResetStats zeroes the pool counters.
func (bp *BufferPool) ResetStats() {
	bp.hits.Store(0)
	bp.misses.Store(0)
	bp.evictions.Store(0)
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
	var f *Frame
	for attempt := 0; ; attempt++ {
		bp.mu.Lock()
		for {
			if g, ok := bp.table[pid]; ok && !fresh {
				if ch := g.loading; ch != nil {
					// Single-flight: another fetcher's read of pid is in
					// flight. Pin now — under the latch, so the frame cannot
					// be victimized — then wait off-latch for the publish.
					g.pin.Add(1)
					bp.mu.Unlock()
					<-ch
					if err := g.loadErr; err != nil {
						g.pin.Add(-1)
						return nil, err
					}
					g.ref.Store(true)
					bp.hits.Add(1)
					return g, nil
				}
				g.pin.Add(1)
				g.ref.Store(true)
				bp.hits.Add(1)
				bp.mu.Unlock()
				return g, nil
			}
			ch, busy := bp.flushing[pid]
			if !busy {
				break
			}
			// pid's latest bytes are still being written back by an
			// eviction; reading the on-disk image now would resurrect the
			// stale version, and for a reallocated pid the late write would
			// overwrite the new page. Wait for the flush, then re-check.
			bp.mu.Unlock()
			<-ch
			bp.mu.Lock()
		}
		f = bp.pickVictimLocked()
		if f != nil {
			break // latch still held
		}
		var err error
		if attempt >= victimRetries {
			err = bp.exhaustedLocked()
		}
		bp.mu.Unlock()
		if err != nil {
			return nil, err
		}
		time.Sleep(victimBackoff(attempt))
	}
	if !fresh {
		bp.misses.Add(1)
	}
	oldPid := f.pid
	oldDirty := f.valid && f.dirty.Load()
	if f.valid {
		bp.evictions.Add(1)
		delete(bp.table, oldPid)
	}
	var flushCh chan struct{}
	if oldDirty {
		flushCh = make(chan struct{})
		bp.flushing[oldPid] = flushCh
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
	f.loading = loadCh
	f.loadErr = nil
	bp.table[pid] = f
	bp.mu.Unlock()

	if oldDirty {
		if err := bp.disk.WritePage(oldPid, f.data); err != nil {
			// The victim's bytes are intact in the frame; remap it under its
			// old identity so the dirty page is not lost, and fail the load
			// (waiters observe loadErr and drop their pins).
			bp.mu.Lock()
			delete(bp.table, pid)
			delete(bp.flushing, oldPid)
			bp.table[oldPid] = f
			bp.markClean(f) // a fresh pid may have been counted
			f.pid = oldPid
			f.valid = true
			f.dirty.Store(true)
			f.loading = nil
			f.loadErr = err
			f.pin.Add(-1)
			bp.mu.Unlock()
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
	bp.mu.Lock()
	if oldDirty {
		delete(bp.flushing, oldPid)
	}
	f.loading = nil
	f.loadErr = rerr
	if rerr != nil {
		delete(bp.table, pid)
		f.valid = false
		f.pin.Add(-1)
	}
	bp.mu.Unlock()
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
	bp.mu.Lock()
	for {
		// An eviction may still be writing pid's old image back; let it
		// finish, or the disk manager would see a write of a freed page.
		ch, busy := bp.flushing[pid]
		if !busy {
			break
		}
		bp.mu.Unlock()
		<-ch
		bp.mu.Lock()
	}
	if f, ok := bp.table[pid]; ok {
		if f.pin.Load() > 0 {
			bp.mu.Unlock()
			return fmt.Errorf("relstore: free of pinned page %d", pid)
		}
		delete(bp.table, pid)
		f.valid = false
		bp.markClean(f)
	}
	bp.mu.Unlock()
	return bp.disk.Free(pid)
}

// Unpin releases one pin on f, marking the page dirty if it was modified.
// It is latch-free: the dirty bit and pin count are atomics, and the store
// order (dirty before pin) is what lets an evictor that observes pin == 0
// under the pool latch also observe the dirty bit and the page bytes the
// pinner wrote.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	if dirty {
		bp.markDirty(f)
	}
	if f.pin.Add(-1) < 0 {
		panic(fmt.Sprintf("relstore: unpin of unpinned page %d", f.pid))
	}
}

// pickVictimLocked finds an unpinned frame by the clock, without flushing or
// invalidating it. Caller holds bp.mu. A dirty frame whose page the
// write-back guard refuses is passed over; unpinned, its dirty bit cannot
// change under the latch. Returns nil if all are pinned or held.
func (bp *BufferPool) pickVictimLocked() *Frame {
	n := len(bp.frames)
	for i := 0; i < 2*n+1; i++ {
		c := bp.frames[bp.hand]
		bp.hand = (bp.hand + 1) % n
		if c.pin.Load() > 0 {
			continue
		}
		if !c.valid {
			return c
		}
		if bp.held != nil && c.dirty.Load() && bp.held(c.pid) {
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

// exhaustedLocked says why pickVictimLocked found nothing. Caller holds bp.mu.
func (bp *BufferPool) exhaustedLocked() error {
	pinned := 0
	for _, c := range bp.frames {
		if c.pin.Load() > 0 {
			pinned++
		}
	}
	if pinned == len(bp.frames) {
		return fmt.Errorf("%w: all %d frames pinned", ErrPoolExhausted, pinned)
	}
	return fmt.Errorf("%w: %d of %d frames pinned, the others hold dirty pages that may not be written back before the next checkpoint",
		ErrPoolExhausted, pinned, len(bp.frames))
}

// DirtyPages returns the ids of every dirty resident page, sorted: the pages
// whose on-disk image is stale. The checkpoint journals the subset of them
// that the previous checkpoint still references — the ones the durable guard
// kept off the disk — before FlushAll overwrites them.
func (bp *BufferPool) DirtyPages() []PageID {
	var out []PageID
	bp.mu.Lock()
	for _, f := range bp.frames {
		if f.loading == nil && f.valid && f.dirty.Load() {
			out = append(out, f.pid)
		}
	}
	bp.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FlushAll writes every dirty resident page back to disk. Frames mid-load
// (misses in flight) are skipped: their images are owned by the
// loader and are not dirty yet.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if f.loading != nil {
			continue
		}
		if f.valid && f.dirty.Load() {
			//focuslint:ignore offlatch FlushAll is a quiesced maintenance path (checkpoints, benchmarks); latch-held writes are acceptable there
			if err := bp.disk.WritePage(f.pid, f.data); err != nil {
				return err
			}
			bp.markClean(f)
		}
	}
	return nil
}
