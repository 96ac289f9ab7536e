package relstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestBufferPoolHitMiss(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 8)
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pid := f.PID()
	f.Data()[0] = 42
	bp.Unpin(f, true)

	f2, err := bp.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Data()[0] != 42 {
		t.Fatal("lost write")
	}
	bp.Unpin(f2, false)
	st := bp.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 hit 0 misses", st)
	}
}

func TestBufferPoolEvictionWritesDirty(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 4)
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pid := f.PID()
	f.Data()[100] = 7
	bp.Unpin(f, true)

	// Flood the pool with other pages to force eviction.
	for i := 0; i < 16; i++ {
		g, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(g, true)
	}
	// Reading the original page back must recover the dirty byte from disk.
	f2, err := bp.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Data()[100] != 7 {
		t.Fatal("dirty page lost on eviction")
	}
	bp.Unpin(f2, false)
	if bp.Stats().Evictions == 0 {
		t.Fatal("expected evictions")
	}
	if r, _ := disk.Stats().Snapshot(); r == 0 {
		t.Fatal("expected physical reads")
	}
}

func TestBufferPoolPinPreventsEviction(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 4)
	var pinned []*Frame
	for i := 0; i < 4; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
	}
	if _, err := bp.NewPage(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
	bp.Unpin(pinned[2], false)
	f, err := bp.NewPage()
	if err != nil {
		t.Fatalf("after unpin: %v", err)
	}
	bp.Unpin(f, false)
	for i, p := range pinned {
		if i != 2 {
			bp.Unpin(p, false)
		}
	}
}

func TestBufferPoolDoubleUnpinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin did not panic")
		}
	}()
	bp := NewBufferPool(NewMemDisk(), 4)
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, false)
	bp.Unpin(f, false)
}

func TestFileDisk(t *testing.T) {
	path := t.TempDir() + "/disk.db"
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pid, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	buf[17] = 99
	if err := d.WritePage(pid, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(pid, got); err != nil {
		t.Fatal(err)
	}
	if got[17] != 99 {
		t.Fatal("file disk lost data")
	}
	if err := d.ReadPage(pid+5, got); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
	if d.NumPages() != 1 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
}

func TestMemDiskZeroFill(t *testing.T) {
	d := NewMemDisk()
	pid, _ := d.Allocate()
	buf := make([]byte, PageSize)
	buf[0] = 0xEE
	if err := d.ReadPage(pid, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("never-written page not zero-filled")
	}
}

// frameImages counts the frames that hold a page image.
func frameImages(bp *BufferPool) int {
	n := 0
	bp.mu.Lock()
	for _, f := range bp.frames {
		if f.data != nil {
			n++
		}
	}
	bp.mu.Unlock()
	return n
}

// check verifies a quiesced pool's bookkeeping under the latch: the page
// table maps exactly the valid frames, each to itself; no frame is loading
// or pinned and no write-back is in flight; and HeldDirty equals the number
// of valid dirty frames the write-back guard refuses.
func (bp *BufferPool) check() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	valid, heldDirty := 0, 0
	for i, f := range bp.frames {
		if f.loading != nil {
			return fmt.Errorf("frame %d (page %d) is loading", i, f.pid)
		}
		if n := f.pin.Load(); n != 0 {
			return fmt.Errorf("frame %d (page %d) holds %d pins", i, f.pid, n)
		}
		if !f.valid {
			continue
		}
		valid++
		if bp.table[f.pid] != f {
			return fmt.Errorf("frame %d holds page %d, which the page table does not map to it", i, f.pid)
		}
		if f.dirty.Load() && bp.held != nil && bp.held(f.pid) {
			heldDirty++
		}
	}
	if len(bp.table) != valid {
		return fmt.Errorf("page table maps %d pages, %d frames are valid", len(bp.table), valid)
	}
	if len(bp.flushing) != 0 {
		return fmt.Errorf("%d write-backs in flight", len(bp.flushing))
	}
	if got := bp.HeldDirty(); got != heldDirty {
		return fmt.Errorf("HeldDirty = %d, %d valid dirty frames are held", got, heldDirty)
	}
	return nil
}

// TestBufferPoolFramesOnDemand: a pool's frame count is a cap, not a
// reservation — a frame gets its image the first time a page is put in it.
func TestBufferPoolFramesOnDemand(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 4096)
	if n := frameImages(bp); n != 0 {
		t.Fatalf("fresh pool holds %d images, want 0", n)
	}
	const k = 37
	var pids []PageID
	for i := 0; i < k; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, f.PID())
		bp.Unpin(f, true)
	}
	for _, pid := range pids { // hits: no new frame
		f, err := bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, false)
	}
	if n := frameImages(bp); n != k {
		t.Fatalf("%d images after touching %d pages", n, k)
	}
}

// TestBufferPoolWriteBackGuard pins the guard's semantics: a dirty page the
// guard holds reaches disk only through FlushAll, every other dirty page is
// stolen as before, and a pool left with nothing but held dirty frames
// reports that — not pinned frames — as the reason it is exhausted.
func TestBufferPoolWriteBackGuard(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 8)
	const nHeld, nFree = 5, 20
	bp.held = func(pid PageID) bool { return pid <= nHeld }
	onDisk := func(pid PageID) byte {
		buf := make([]byte, PageSize)
		if err := disk.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
		return buf[0]
	}
	for i := 1; i <= nHeld+nFree; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if f.PID() != PageID(i) {
			t.Fatalf("page %d allocated as %d", i, f.PID())
		}
		f.Data()[0] = byte(100 + i)
		bp.Unpin(f, true)
	}
	if got := bp.HeldDirty(); got != nHeld {
		t.Fatalf("HeldDirty = %d, want %d", got, nHeld)
	}
	if bp.Stats().Evictions == 0 {
		t.Fatal("no evictions: the pool is too large for this test")
	}
	// 25 pages went through 8 frames, 5 of which the held pages keep: at
	// least 17 pages outside the set were stolen, and their bytes are on disk.
	stolen := 0
	for i := nHeld + 1; i <= nHeld+nFree; i++ {
		if onDisk(PageID(i)) == byte(100+i) {
			stolen++
		}
	}
	if stolen < nFree-3 {
		t.Fatalf("%d pages outside the guard reached disk, want >= %d", stolen, nFree-3)
	}
	for i := 1; i <= nHeld; i++ {
		if b := onDisk(PageID(i)); b != 0 {
			t.Fatalf("held page %d reached disk before FlushAll (byte %d)", i, b)
		}
	}
	// Re-dirtying a held page is no transition; freeing one lowers the count.
	f, err := bp.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true)
	if err := bp.FreePage(2); err != nil {
		t.Fatal(err)
	}
	if got := bp.HeldDirty(); got != nHeld-1 {
		t.Fatalf("HeldDirty = %d after a re-dirty and a free, want %d", got, nHeld-1)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := bp.HeldDirty(); got != 0 {
		t.Fatalf("HeldDirty = %d after FlushAll", got)
	}
	for _, i := range []int{1, 3, 4, 5} {
		if b := onDisk(PageID(i)); b != byte(100+i) {
			t.Fatalf("held page %d not on disk after FlushAll (byte %d)", i, b)
		}
	}

	// Exhaustion says which case it is.
	full := NewBufferPool(NewMemDisk(), 4)
	full.held = func(PageID) bool { return true }
	for i := 0; i < 4; i++ {
		f, err := full.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		full.Unpin(f, true)
	}
	_, err = full.NewPage()
	if !errors.Is(err, ErrPoolExhausted) || !strings.Contains(err.Error(), "0 of 4 frames pinned, the others hold dirty pages that may not be written back") {
		t.Fatalf("all frames held dirty: err = %v", err)
	}
	var pinned []*Frame
	full = NewBufferPool(NewMemDisk(), 4)
	for i := 0; i < 4; i++ {
		f, err := full.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
	}
	_, err = full.NewPage()
	if !errors.Is(err, ErrPoolExhausted) || !strings.Contains(err.Error(), "all 4 frames pinned") {
		t.Fatalf("all frames pinned: err = %v", err)
	}
	for _, f := range pinned {
		full.Unpin(f, false)
	}
}
