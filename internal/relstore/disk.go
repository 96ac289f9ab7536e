package relstore

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the fixed on-disk page size. The paper's DB2 configuration
// used 4 KiB buffer-pool pages, and Figure 8(b)'s x-axis is denominated in
// 4 KiB pages, so we match it.
const PageSize = 4096

// PageID names a disk page. Page 0 is reserved as the invalid page so that
// zeroed bytes decode as "no page".
type PageID uint32

// InvalidPage is the zero PageID; no real page ever has it.
const InvalidPage PageID = 0

// IOStats counts physical page operations performed by a DiskManager.
type IOStats struct {
	Reads  atomic.Int64
	Writes atomic.Int64
}

// Snapshot returns the current counter values.
func (s *IOStats) Snapshot() (reads, writes int64) {
	return s.Reads.Load(), s.Writes.Load()
}

// Reset zeroes the counters.
func (s *IOStats) Reset() {
	s.Reads.Store(0)
	s.Writes.Store(0)
}

// DiskManager is the page-granular storage device under the buffer pool.
type DiskManager interface {
	// ReadPage fills buf (len PageSize) with the page's bytes.
	//focuslint:blocking io
	ReadPage(pid PageID, buf []byte) error
	// WritePage persists buf (len PageSize) as the page's bytes.
	//focuslint:blocking io
	WritePage(pid PageID, buf []byte) error
	// Allocate reserves a page and returns its ID, reusing a freed page
	// when one is available. Reused pages are not zeroed; callers must
	// write before reading (BufferPool.NewPage hands out a zeroed frame).
	Allocate() (PageID, error)
	// Free returns a page to the allocator for reuse. Reading, writing, or
	// re-freeing a freed page is an error until Allocate hands it out again.
	Free(pid PageID) error
	// NumPages reports the high-water page count (freed pages included,
	// since they still occupy address space until reused).
	NumPages() int64
	// FreePages reports how many freed pages are awaiting reuse.
	FreePages() int64
	// Stats exposes the physical I/O counters.
	Stats() *IOStats
	// Close releases underlying resources.
	Close() error
}

// DurableDisk is the extra surface a DiskManager must provide to back a
// durable DB (OpenDurable/OpenFile): the manifest captures the allocator
// state at each checkpoint and re-imposes it on reopen, and the checkpoint
// commit point requires a durability barrier.
type DurableDisk interface {
	DiskManager
	// FreeList returns a copy of the free-page stack, oldest free first;
	// Allocate pops from the end, so restoring the exact order keeps page
	// allocation — and therefore a resumed run's physical layout —
	// deterministic.
	FreeList() []PageID
	// Restore imposes allocator state recovered from a manifest: the page
	// count and the free stack. Pages past n (allocated after the
	// checkpoint being recovered) are discarded. An n past the pages the
	// device holds, or a free page out of range or listed twice, is an
	// error returned before any state changes.
	Restore(n int64, free []PageID) error
	// Sync durably flushes all written pages (fsync for files, a no-op for
	// memory disks).
	//focuslint:blocking io
	Sync() error
}

// MemDisk is an in-memory DiskManager. An optional per-operation latency
// simulates a spinning disk so that access-path differences show up in wall
// time as well as in the I/O counters.
type MemDisk struct {
	// Pure leaf: the simulated-latency sleep always runs after mu drops.
	//focuslint:lock rank=memdisk leaf noblock=io,chan,sleep
	mu      sync.Mutex
	pages   [][]byte
	free    []PageID
	freed   map[PageID]struct{}
	stats   IOStats
	latency time.Duration
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// SetLatency sets a simulated per-page-I/O delay (0 disables it).
func (d *MemDisk) SetLatency(l time.Duration) {
	d.mu.Lock()
	d.latency = l
	d.mu.Unlock()
}

// pause waits out the simulated latency. Sleep's granularity is the
// runtime timer's — close to a millisecond here, so a 20 µs Sleep took
// 0.84 ms and charged every I/O forty times the latency asked for; waits
// under a millisecond spin on the clock instead.
func (d *MemDisk) pause() {
	if d.latency <= 0 {
		return
	}
	if d.latency >= time.Millisecond {
		time.Sleep(d.latency)
		return
	}
	for start := time.Now(); time.Since(start) < d.latency; {
	}
}

// ReadPage implements DiskManager.
func (d *MemDisk) ReadPage(pid PageID, buf []byte) error {
	d.mu.Lock()
	if pid == InvalidPage || int64(pid) > int64(len(d.pages)) {
		d.mu.Unlock()
		return fmt.Errorf("relstore: read of unallocated page %d", pid)
	}
	if _, ok := d.freed[pid]; ok {
		d.mu.Unlock()
		return fmt.Errorf("relstore: read of freed page %d", pid)
	}
	src := d.pages[pid-1]
	if src == nil {
		for i := range buf {
			buf[i] = 0
		}
	} else {
		copy(buf, src)
	}
	d.mu.Unlock()
	d.stats.Reads.Add(1)
	d.pause()
	return nil
}

// WritePage implements DiskManager.
func (d *MemDisk) WritePage(pid PageID, buf []byte) error {
	d.mu.Lock()
	if pid == InvalidPage || int64(pid) > int64(len(d.pages)) {
		d.mu.Unlock()
		return fmt.Errorf("relstore: write of unallocated page %d", pid)
	}
	if _, ok := d.freed[pid]; ok {
		d.mu.Unlock()
		return fmt.Errorf("relstore: write of freed page %d", pid)
	}
	dst := d.pages[pid-1]
	if dst == nil {
		dst = make([]byte, PageSize)
		d.pages[pid-1] = dst
	}
	copy(dst, buf)
	d.mu.Unlock()
	d.stats.Writes.Add(1)
	d.pause()
	return nil
}

// Allocate implements DiskManager.
func (d *MemDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	if n := len(d.free); n > 0 {
		pid := d.free[n-1]
		d.free = d.free[:n-1]
		delete(d.freed, pid)
		d.mu.Unlock()
		return pid, nil
	}
	d.pages = append(d.pages, nil)
	pid := PageID(len(d.pages))
	d.mu.Unlock()
	return pid, nil
}

// Free implements DiskManager.
func (d *MemDisk) Free(pid PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pid == InvalidPage || int64(pid) > int64(len(d.pages)) {
		return fmt.Errorf("relstore: free of unallocated page %d", pid)
	}
	if _, ok := d.freed[pid]; ok {
		return fmt.Errorf("relstore: double free of page %d", pid)
	}
	if d.freed == nil {
		d.freed = make(map[PageID]struct{})
	}
	d.freed[pid] = struct{}{}
	d.free = append(d.free, pid)
	// The backing bytes stay, mirroring FileDisk: the interface contract
	// says reused pages are not zeroed (the pool writes before reading),
	// and durable recovery depends on freed pages keeping their last
	// checkpoint's image until something actually overwrites them.
	return nil
}

// NumPages implements DiskManager.
func (d *MemDisk) NumPages() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.pages))
}

// FreePages implements DiskManager.
func (d *MemDisk) FreePages() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.free))
}

// Stats implements DiskManager.
func (d *MemDisk) Stats() *IOStats { return &d.stats }

// Close implements DiskManager.
func (d *MemDisk) Close() error { return nil }

// Sync implements DurableDisk; memory pages are always "durable" (a
// simulated crash is the caller discarding the buffer pool, not the disk).
func (d *MemDisk) Sync() error { return nil }

// FreeList implements DurableDisk.
func (d *MemDisk) FreeList() []PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]PageID(nil), d.free...)
}

// Restore implements DurableDisk: imposes the manifest's allocator state,
// discarding any pages allocated after the checkpoint being recovered.
func (d *MemDisk) Restore(n int64, free []PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	freed, err := restoredFreeSet(n, int64(len(d.pages)), free)
	if err != nil {
		return err
	}
	d.pages = d.pages[:n]
	d.free = append(d.free[:0], free...)
	d.freed = freed
	return nil
}

// restoredFreeSet checks Restore's arguments against a device of size
// pages and returns the free list as a set. A page listed twice would let
// Allocate hand it out twice.
func restoredFreeSet(n, size int64, free []PageID) (map[PageID]struct{}, error) {
	if n < 0 || n > size {
		return nil, fmt.Errorf("relstore: restore to page count %d of a %d-page disk", n, size)
	}
	freed := make(map[PageID]struct{}, len(free))
	for _, pid := range free {
		if pid == InvalidPage || int64(pid) > n {
			return nil, fmt.Errorf("relstore: restored free page %d out of range", pid)
		}
		if _, dup := freed[pid]; dup {
			return nil, fmt.Errorf("relstore: restored free page %d listed twice", pid)
		}
		freed[pid] = struct{}{}
	}
	return freed, nil
}

// FileDisk is a DiskManager backed by a single operating-system file. The
// free list is kept in memory; a durable DB persists it (with the rest of
// the allocator state) in its manifest and re-imposes it via Restore on
// reopen — a FileDisk reopened raw (OpenFileDiskAt without a manifest)
// starts with no free pages.
type FileDisk struct {
	// Pure leaf guarding the allocation metadata; the pread/pwrite syscalls
	// run outside it (see ReadPage/WritePage).
	//focuslint:lock rank=filedisk leaf noblock=io,chan,sleep
	mu    sync.Mutex
	f     *os.File
	n     int64
	free  []PageID
	freed map[PageID]struct{}
	stats IOStats
}

// OpenFileDisk creates (truncating) a file-backed disk at path.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileDisk{f: f}, nil
}

// OpenFileDiskAt opens (or creates) a file-backed disk at path WITHOUT
// truncating: existing page bytes survive, and the page count is derived
// from the file size. A trailing partial page (a crash mid-extension) is
// ignored — it was never part of a committed checkpoint. The free list is
// empty until a manifest restores it (see OpenFile).
func OpenFileDiskAt(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileDisk{f: f, n: fi.Size() / PageSize}, nil
}

// ReadPage implements DiskManager. The bounds and freed-set checks run
// under d.mu, but the ReadAt itself does not: pread is concurrency-safe
// (its own file offset, kernel-serialized per page), so real-file reads
// from the sharded buffer pool's off-latch misses proceed in parallel
// instead of serializing behind the disk mutex.
func (d *FileDisk) ReadPage(pid PageID, buf []byte) error {
	d.mu.Lock()
	if pid == InvalidPage || int64(pid) > d.n {
		d.mu.Unlock()
		return fmt.Errorf("relstore: read of unallocated page %d", pid)
	}
	if _, ok := d.freed[pid]; ok {
		d.mu.Unlock()
		return fmt.Errorf("relstore: read of freed page %d", pid)
	}
	d.mu.Unlock()
	d.stats.Reads.Add(1)
	_, err := d.f.ReadAt(buf[:PageSize], int64(pid-1)*PageSize)
	return err
}

// WritePage implements DiskManager. As with ReadPage, only the checks hold
// d.mu; the pwrite runs outside it. Concurrent writers of one page are
// already excluded by the buffer pool (a page flushes from exactly one
// frame, and the pool never flushes and re-reads a page concurrently).
func (d *FileDisk) WritePage(pid PageID, buf []byte) error {
	d.mu.Lock()
	if pid == InvalidPage || int64(pid) > d.n {
		d.mu.Unlock()
		return fmt.Errorf("relstore: write of unallocated page %d", pid)
	}
	if _, ok := d.freed[pid]; ok {
		d.mu.Unlock()
		return fmt.Errorf("relstore: write of freed page %d", pid)
	}
	d.mu.Unlock()
	d.stats.Writes.Add(1)
	_, err := d.f.WriteAt(buf[:PageSize], int64(pid-1)*PageSize)
	return err
}

// Allocate implements DiskManager.
func (d *FileDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.free); n > 0 {
		pid := d.free[n-1]
		d.free = d.free[:n-1]
		delete(d.freed, pid)
		return pid, nil
	}
	d.n++
	pid := PageID(d.n)
	// Extend the file so reads of never-written pages see zeroes.
	if err := d.f.Truncate(d.n * PageSize); err != nil {
		d.n--
		return InvalidPage, err
	}
	return pid, nil
}

// Free implements DiskManager. The page's old bytes stay in the file; the
// buffer pool never reads a reallocated page before writing it.
func (d *FileDisk) Free(pid PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pid == InvalidPage || int64(pid) > d.n {
		return fmt.Errorf("relstore: free of unallocated page %d", pid)
	}
	if _, ok := d.freed[pid]; ok {
		return fmt.Errorf("relstore: double free of page %d", pid)
	}
	if d.freed == nil {
		d.freed = make(map[PageID]struct{})
	}
	d.freed[pid] = struct{}{}
	d.free = append(d.free, pid)
	return nil
}

// NumPages implements DiskManager.
func (d *FileDisk) NumPages() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// FreePages implements DiskManager.
func (d *FileDisk) FreePages() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.free))
}

// Stats implements DiskManager.
func (d *FileDisk) Stats() *IOStats { return &d.stats }

// Sync fsyncs the file, making every completed WritePage durable. Close
// used to skip this: dirty OS-buffered pages of a "cleanly" closed disk
// could vanish in a host crash, which is exactly the window a checkpoint
// must not have. Checkpoint commit points and Close both call it now.
func (d *FileDisk) Sync() error { return d.f.Sync() }

// FreeList implements DurableDisk.
func (d *FileDisk) FreeList() []PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]PageID(nil), d.free...)
}

// Restore implements DurableDisk: imposes the manifest's allocator state
// and truncates the file back to n pages, discarding garbage pages
// allocated after the checkpoint being recovered. A checkpoint syncs the
// file at its full length, so n past the file's pages is refused.
func (d *FileDisk) Restore(n int64, free []PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	freed, err := restoredFreeSet(n, d.n, free)
	if err != nil {
		return err
	}
	if err := d.f.Truncate(n * PageSize); err != nil {
		return err
	}
	d.n = n
	d.free = append(d.free[:0], free...)
	d.freed = freed
	return nil
}

// Close implements DiskManager: flush to stable storage, then close.
func (d *FileDisk) Close() error {
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}
