package relstore

import (
	"errors"
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

func TestBufferPoolResize(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 8)
	var pids []PageID
	for i := 0; i < 20; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i)
		pids = append(pids, f.PID())
		bp.Unpin(f, true)
	}
	if err := bp.Resize(4); err != nil {
		t.Fatal(err)
	}
	if bp.NumFrames() != 4 {
		t.Fatalf("frames = %d", bp.NumFrames())
	}
	for i, pid := range pids {
		f, err := bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != byte(i) {
			t.Fatalf("page %d corrupted after resize", pid)
		}
		bp.Unpin(f, false)
	}
}

func TestBufferPoolLRUPolicy(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 4)
	bp.SetPolicy(PolicyLRU)
	var pids []PageID
	for i := 0; i < 12; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i + 1)
		pids = append(pids, f.PID())
		bp.Unpin(f, true)
	}
	for i, pid := range pids {
		f, err := bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != byte(i+1) {
			t.Fatalf("LRU pool corrupted page %d", pid)
		}
		bp.Unpin(f, false)
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

func TestBufferPoolShardedRoundTrip(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPoolSharded(disk, 10, 4)
	if bp.Shards() != 4 {
		t.Fatalf("Shards = %d", bp.Shards())
	}
	if bp.NumFrames() != 10 {
		t.Fatalf("NumFrames = %d", bp.NumFrames())
	}
	var pids []PageID
	for i := 0; i < 40; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i + 1)
		pids = append(pids, f.PID())
		bp.Unpin(f, true)
	}
	for i, pid := range pids {
		f, err := bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != byte(i+1) {
			t.Fatalf("page %d corrupted across sharded eviction", pid)
		}
		bp.Unpin(f, false)
	}
	st := bp.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions in sharded round trip; pool too large")
	}
	// Per-shard counters must sum to the aggregate.
	var sum BufStats
	for _, s := range bp.ShardStats() {
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Evictions += s.Evictions
	}
	if sum != st {
		t.Fatalf("ShardStats sum %+v != Stats %+v", sum, st)
	}
	// Resize redistributes frames across the same shards and keeps data.
	if err := bp.Resize(6); err != nil {
		t.Fatal(err)
	}
	if bp.NumFrames() != 6 {
		t.Fatalf("NumFrames after resize = %d", bp.NumFrames())
	}
	for i, pid := range pids {
		f, err := bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != byte(i+1) {
			t.Fatalf("page %d corrupted after sharded resize", pid)
		}
		bp.Unpin(f, false)
	}
}

func TestBufferPoolShardedLRUPolicy(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPoolSharded(disk, 8, 4)
	bp.SetPolicy(PolicyLRU)
	var pids []PageID
	for i := 0; i < 24; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i + 1)
		pids = append(pids, f.PID())
		bp.Unpin(f, true)
	}
	for i, pid := range pids {
		f, err := bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != byte(i+1) {
			t.Fatalf("sharded LRU pool corrupted page %d", pid)
		}
		bp.Unpin(f, false)
	}
}

// frameImages counts the frames that hold a page image.
func frameImages(bp *BufferPool) int {
	n := 0
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.data != nil {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TestBufferPoolFramesOnDemand: a pool's frame count is a cap, not a
// reservation — a frame gets its image the first time a page is put in it.
func TestBufferPoolFramesOnDemand(t *testing.T) {
	for _, shards := range []int{1, 4} {
		bp := NewBufferPoolSharded(NewMemDisk(), 4096, shards)
		if n := frameImages(bp); n != 0 {
			t.Fatalf("shards=%d: fresh pool holds %d images, want 0", shards, n)
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
			t.Fatalf("shards=%d: %d images after touching %d pages", shards, n, k)
		}
		if err := bp.Resize(4096); err != nil {
			t.Fatal(err)
		}
		if n := frameImages(bp); n != 0 {
			t.Fatalf("shards=%d: resized pool holds %d images, want 0", shards, n)
		}
		for _, pid := range pids[:5] { // misses after the resize claim frames again
			f, err := bp.Fetch(pid)
			if err != nil {
				t.Fatal(err)
			}
			bp.Unpin(f, false)
		}
		if n := frameImages(bp); n != 5 {
			t.Fatalf("shards=%d: %d images after 5 misses on the resized pool", shards, n)
		}
	}
}

// TestBufferPoolWriteBackGuard pins the guard's semantics: a dirty page the
// guard holds reaches disk only through FlushAll, every other dirty page is
// stolen as before, and a shard left with nothing but held dirty frames
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
