package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests exercise the BufferPool's concurrency contract (see the
// package doc): the pool itself is safe for concurrent Fetch/NewPage/Unpin
// from any number of goroutines; page *contents* may be written while
// pinned only by one owner at a time (here, each goroutine writes only
// pages it owns) and read freely by concurrent pinners. Each suite ends with
// the quiesced pool's invariant check, (*BufferPool).check. Run with -race:
// the CI workflow does, at 1, 2 and 4 CPUs.

// TestBufferPoolConcurrentStress has every goroutine allocate pages, write
// a recognizable pattern, unpin dirty, then re-fetch and verify — under
// heavy eviction traffic from a pool much smaller than the page population.
func TestBufferPoolConcurrentStress(t *testing.T) {
	for _, kind := range diskKinds {
		t.Run("disk="+kind+"/shards=1", func(t *testing.T) {
			testBufferPoolConcurrentStress(t, newTestDisk(t, kind))
		})
	}
}

func testBufferPoolConcurrentStress(t *testing.T, disk DiskManager) {
	const (
		goroutines = 8
		pagesEach  = 40
		rounds     = 3
	)
	bp := NewBufferPool(disk, 16) // far fewer frames than live pages

	stamp := func(buf []byte, g, i, r int) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(g)<<40|uint64(i)<<16|uint64(r))
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pids := make([]PageID, 0, pagesEach)
			for i := 0; i < pagesEach; i++ {
				f, err := bp.NewPage()
				if err != nil {
					errCh <- err
					return
				}
				stamp(f.Data(), g, i, 0)
				pid := f.PID()
				bp.Unpin(f, true)
				pids = append(pids, pid)
			}
			for r := 1; r <= rounds; r++ {
				for i, pid := range pids {
					f, err := bp.Fetch(pid)
					if err != nil {
						errCh <- err
						return
					}
					var want [8]byte
					stamp(want[:], g, i, r-1)
					if got := binary.LittleEndian.Uint64(f.Data()); got != binary.LittleEndian.Uint64(want[:]) {
						bp.Unpin(f, false)
						errCh <- errors.New("page content corrupted across eviction")
						return
					}
					stamp(f.Data(), g, i, r)
					bp.Unpin(f, true)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if st := bp.Stats(); st.Evictions == 0 {
		t.Fatal("stress ran without evictions; pool too large to test replacement")
	}
	if err := bp.check(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolSharedReaders pins one hot page from many goroutines
// simultaneously (concurrent read-only pinners of the same frame are part
// of the contract) while background goroutines churn other pages through
// the pool.
func TestBufferPoolSharedReaders(t *testing.T) {
	for _, kind := range diskKinds {
		t.Run("disk="+kind+"/shards=1", func(t *testing.T) {
			testBufferPoolSharedReaders(t, newTestDisk(t, kind))
		})
	}
}

func testBufferPoolSharedReaders(t *testing.T, disk DiskManager) {
	bp := NewBufferPool(disk, 8)

	hot, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	for i := range hot.Data() {
		hot.Data()[i] = byte(i)
	}
	hotPID := hot.PID()
	bp.Unpin(hot, true)

	var wg sync.WaitGroup
	errCh := make(chan error, 12)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f, err := bp.Fetch(hotPID)
				if err != nil {
					errCh <- err
					return
				}
				if f.Data()[1] != 1 || f.Data()[255] != 255 {
					bp.Unpin(f, false)
					errCh <- errors.New("hot page content wrong")
					return
				}
				bp.Unpin(f, false)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				f, err := bp.NewPage()
				if err != nil {
					errCh <- err
					return
				}
				f.Data()[0] = byte(i)
				bp.Unpin(f, true)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if st := bp.Stats(); st.Evictions == 0 {
		t.Fatal("reader/churn mix ran without evictions; pool too large")
	}
	if err := bp.check(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolConcurrentTables drives two independent B+trees (as two
// crawler shards do) from two goroutines over one shared pool — the exact
// access pattern the sharded frontier relies on.
func TestBufferPoolConcurrentTables(t *testing.T) {
	for _, kind := range diskKinds {
		t.Run("disk="+kind+"/shards=1", func(t *testing.T) {
			testBufferPoolConcurrentTables(t, newTestDisk(t, kind))
		})
	}
}

func testBufferPoolConcurrentTables(t *testing.T, disk DiskManager) {
	// Far fewer frames than the trees' ~20 pages, so frames are stolen
	// back and forth between the two trees mid-run (but comfortably more
	// than the pages both writers can pin at once).
	bp := NewBufferPool(disk, 12)

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for g := 0; g < 2; g++ {
		tree, err := NewBTree(bp)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, tree *BTree) {
			defer wg.Done()
			for i := 0; i < 800; i++ {
				k := EncodeKey(I64(int64(g)), I64(int64(i)))
				if err := tree.Insert(k, EncodeRID(RID{Page: PageID(i + 1), Slot: uint16(g)})); err != nil {
					errCh <- err
					return
				}
			}
			for i := 0; i < 800; i++ {
				k := EncodeKey(I64(int64(g)), I64(int64(i)))
				v, ok, err := tree.Get(k)
				if err != nil || !ok {
					errCh <- errors.New("lost key after concurrent inserts")
					return
				}
				rid, err := DecodeRID(v)
				if err != nil || rid.Page != PageID(i+1) {
					errCh <- errors.New("wrong value after concurrent inserts")
					return
				}
			}
		}(g, tree)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if st := bp.Stats(); st.Evictions == 0 {
		t.Fatal("cross-table run without evictions; pool too large to test frame stealing")
	}
	if err := bp.check(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolSingleFlightStress pins the miss protocol's
// single-flight guarantee: N goroutines Fetch the same cold page
// concurrently, and exactly one DiskManager.ReadPage happens — the first
// fetcher publishes the frame in loading state and reads off-latch, the
// rest wait on that frame and share the one physical read. Everyone sees
// the same frame with identical bytes.
func TestBufferPoolSingleFlightStress(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		const fetchers = 16
		disk := NewMemDisk()
		pid, err := disk.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, PageSize)
		for i := range want {
			want[i] = byte(i * 7)
		}
		if err := disk.WritePage(pid, want); err != nil {
			t.Fatal(err)
		}
		bp := NewBufferPool(disk, 64)
		disk.Stats().Reset()
		// Widen the loading window so most fetchers really do arrive
		// while the read is in flight (correctness must not depend on
		// it — latecomers are plain hits and the counts still hold).
		disk.SetLatency(200 * time.Microsecond)

		start := make(chan struct{})
		frames := make([]*Frame, fetchers)
		errCh := make(chan error, fetchers)
		var wg sync.WaitGroup
		for g := 0; g < fetchers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				f, err := bp.Fetch(pid)
				if err != nil {
					errCh <- err
					return
				}
				for i, b := range f.Data() {
					if b != want[i] {
						bp.Unpin(f, false)
						errCh <- fmt.Errorf("fetcher %d: byte %d = %d, want %d", g, i, b, want[i])
						return
					}
				}
				frames[g] = f
				bp.Unpin(f, false)
			}(g)
		}
		close(start)
		wg.Wait()
		disk.SetLatency(0)
		close(errCh)
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		if r, _ := disk.Stats().Snapshot(); r != 1 {
			t.Fatalf("disk reads = %d, want exactly 1 (single-flight)", r)
		}
		for g := 1; g < fetchers; g++ {
			if frames[g] != frames[0] {
				t.Fatalf("fetcher %d got a different frame", g)
			}
		}
		st := bp.Stats()
		if st.Misses != 1 || st.Hits != fetchers-1 {
			t.Fatalf("stats = %+v, want 1 miss and %d hits", st, fetchers-1)
		}
		if err := bp.check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBufferPoolCrossShardMissStress churns concurrent misses from eight
// goroutines through a pool far smaller than the page population, with dirty pages
// so the off-latch victim write-back path (and the flushing-wait on
// re-fetch of a page whose flush is in flight) is constantly exercised.
// Each goroutine owns a disjoint set of pages (the page-content contract);
// contents must round-trip through eviction exactly.
func TestBufferPoolCrossShardMissStress(t *testing.T) {
	for _, kind := range diskKinds {
		t.Run("disk="+kind, func(t *testing.T) {
			testBufferPoolCrossShardMissStress(t, newTestDisk(t, kind))
		})
	}
}

func testBufferPoolCrossShardMissStress(t *testing.T, disk DiskManager) {
	const (
		goroutines = 8
		pages      = 256
		rounds     = 4
	)
	stamp := func(buf []byte, pid PageID, r int) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(pid)<<16|uint64(r))
		binary.LittleEndian.PutUint64(buf[PageSize-8:], uint64(pid)<<16|uint64(r))
	}
	pids := make([]PageID, pages)
	buf := make([]byte, PageSize)
	for i := range pids {
		pid, err := disk.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		stamp(buf, pid, 0)
		if err := disk.WritePage(pid, buf); err != nil {
			t.Fatal(err)
		}
		pids[i] = pid
	}
	bp := NewBufferPool(disk, 32)

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				// Walk the owned pages at a stride so rounds collide with
				// other goroutines' evictions.
				for k := 0; k < pages; k++ {
					i := (k*37 + g*13) % pages
					if i%goroutines != g {
						continue
					}
					pid := pids[i]
					f, err := bp.Fetch(pid)
					if err != nil {
						errCh <- err
						return
					}
					wantHdr := uint64(pid)<<16 | uint64(r-1)
					if got := binary.LittleEndian.Uint64(f.Data()); got != wantHdr {
						bp.Unpin(f, false)
						errCh <- fmt.Errorf("page %d round %d: header %x, want %x", pid, r, got, wantHdr)
						return
					}
					if got := binary.LittleEndian.Uint64(f.Data()[PageSize-8:]); got != wantHdr {
						bp.Unpin(f, false)
						errCh <- fmt.Errorf("page %d round %d: trailer torn", pid, r)
						return
					}
					stamp(f.Data(), pid, r)
					bp.Unpin(f, true)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range pids {
		if err := disk.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
		want := uint64(pid)<<16 | uint64(rounds)
		if got := binary.LittleEndian.Uint64(buf); got != want {
			t.Fatalf("page %d after flush: %x, want %x", pid, got, want)
		}
	}
	if st := bp.Stats(); st.Evictions == 0 {
		t.Fatal("miss stress ran without evictions")
	}
	if err := bp.check(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolShardExhaustion pins every frame of the pool and checks
// that a further miss fails with ErrPoolExhausted, and that the pool recovers
// once a pin drops.
func TestBufferPoolShardExhaustion(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		const frames = 4
		disk := NewMemDisk()
		bp := NewBufferPool(disk, frames)
		buf := make([]byte, PageSize)
		pids := make([]PageID, frames+1)
		for i := range pids {
			pid, err := disk.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if err := disk.WritePage(pid, buf); err != nil {
				t.Fatal(err)
			}
			pids[i] = pid
		}
		pinned := make([]*Frame, frames)
		for i := range pinned {
			f, err := bp.Fetch(pids[i])
			if err != nil {
				t.Fatal(err)
			}
			pinned[i] = f
		}
		// Every frame is pinned: one more page has nowhere to go.
		if _, err := bp.Fetch(pids[frames]); !errors.Is(err, ErrPoolExhausted) {
			t.Fatalf("err = %v, want ErrPoolExhausted", err)
		}
		// Dropping one pin frees a frame for the blocked page.
		bp.Unpin(pinned[0], false)
		f, err := bp.Fetch(pids[frames])
		if err != nil {
			t.Fatalf("after unpin: %v", err)
		}
		bp.Unpin(f, false)
		for _, f := range pinned[1:] {
			bp.Unpin(f, false)
		}
	})
}

// gateDisk holds every ReadPage until `want` of them are in flight at once.
type gateDisk struct {
	*MemDisk
	want     int32
	inflight atomic.Int32
	open     chan struct{}
}

func (d *gateDisk) ReadPage(pid PageID, buf []byte) error {
	if d.inflight.Add(1) == d.want {
		close(d.open)
	}
	<-d.open
	return d.MemDisk.ReadPage(pid, buf)
}

// TestBufferPoolMissesOverlap pins the off-latch contract: misses on
// distinct pages read concurrently. The disk
// completes no read until four are in flight, so a pool that holds its
// latch across ReadPage never finishes.
func TestBufferPoolMissesOverlap(t *testing.T) {
	const fetchers = 4
	disk := &gateDisk{MemDisk: NewMemDisk(), want: fetchers, open: make(chan struct{})}
	pids := make([]PageID, fetchers)
	buf := make([]byte, PageSize)
	for i := range pids {
		pid, err := disk.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i + 1)
		if err := disk.WritePage(pid, buf); err != nil {
			t.Fatal(err)
		}
		pids[i] = pid
	}
	bp := NewBufferPool(disk, 8)
	errCh := make(chan error, fetchers)
	for i, pid := range pids {
		go func() {
			f, err := bp.Fetch(pid)
			if err == nil {
				if got := f.Data()[0]; got != byte(i+1) {
					err = fmt.Errorf("page %d: byte 0 = %d, want %d", pid, got, i+1)
				}
				bp.Unpin(f, false)
			}
			errCh <- err
		}()
	}
	timeout := time.After(10 * time.Second)
	for range pids {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("misses on %d distinct pages did not overlap: %d reads in flight", fetchers, disk.inflight.Load())
		}
	}
	if err := bp.check(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolHeldDirtyStress runs fetch, dirty, free and evict traffic
// from many goroutines over a pool whose guard holds one page in eight, then
// checks the lock-free HeldDirty count against a latch-held scan of the
// frames (check): every clean/dirty transition of a held page was counted
// once, none of an unheld page was, and eviction wrote back no held page.
func TestBufferPoolHeldDirtyStress(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		const (
			goroutines = 8
			pagesEach  = 48
			rounds     = 4
		)
		disk := NewMemDisk()
		bp := NewBufferPool(disk, 160) // 384 live pages, 48 of them held
		bp.held = func(pid PageID) bool { return pid%8 == 0 }

		var wg sync.WaitGroup
		errCh := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var pids []PageID
				alloc := func() error {
					f, err := bp.NewPage()
					if err != nil {
						return err
					}
					binary.LittleEndian.PutUint32(f.Data(), uint32(f.PID()))
					pids = append(pids, f.PID())
					bp.Unpin(f, true)
					return nil
				}
				for i := 0; i < pagesEach; i++ {
					if err := alloc(); err != nil {
						errCh <- err
						return
					}
				}
				for r := 0; r < rounds; r++ {
					for i, pid := range pids {
						f, err := bp.Fetch(pid)
						if err != nil {
							errCh <- err
							return
						}
						if got := binary.LittleEndian.Uint32(f.Data()); got != uint32(pid) {
							bp.Unpin(f, false)
							errCh <- fmt.Errorf("page %d holds stamp %d", pid, got)
							return
						}
						bp.Unpin(f, (i+r)%3 != 0) // a mix of clean and dirty unpins
					}
					// Free a slice of the pages and allocate as many again:
					// freed ids (held ones among them) come back fresh.
					for i := 0; i < pagesEach/4; i++ {
						if err := bp.FreePage(pids[i]); err != nil {
							errCh <- err
							return
						}
					}
					pids = pids[pagesEach/4:]
					for i := 0; i < pagesEach/4; i++ {
						if err := alloc(); err != nil {
							errCh <- err
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		if bp.Stats().Evictions == 0 {
			t.Fatal("stress ran without evictions")
		}
		if err := bp.check(); err != nil {
			t.Fatal(err)
		}
		if bp.HeldDirty() == 0 {
			t.Fatal("no held dirty frames left: the guard was never exercised")
		}
		// No held page may have reached disk: MemDisk zero-fills pages
		// never written, and every page image starts with its nonzero id.
		buf := make([]byte, PageSize)
		for pid := PageID(8); int64(pid) <= disk.NumPages(); pid += 8 {
			if err := disk.ReadPage(pid, buf); err != nil {
				continue // freed and not reallocated
			}
			if binary.LittleEndian.Uint32(buf) != 0 {
				t.Fatalf("held page %d was written back before FlushAll", pid)
			}
		}
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if got := bp.HeldDirty(); got != 0 {
			t.Fatalf("HeldDirty = %d after FlushAll", got)
		}
	})
}
