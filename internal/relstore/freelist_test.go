package relstore

import (
	"path/filepath"
	"testing"
)

func TestMemDiskFreeReuse(t *testing.T) {
	d := NewMemDisk()
	var pids []PageID
	for i := 0; i < 3; i++ {
		pid, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	if n := d.NumPages(); n != 3 {
		t.Fatalf("NumPages = %d, want 3", n)
	}
	if err := d.Free(pids[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(pids[1]); err == nil {
		t.Fatal("double free did not error")
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPage(pids[1], buf); err == nil {
		t.Fatal("read of freed page did not error")
	}
	if err := d.WritePage(pids[1], buf); err == nil {
		t.Fatal("write of freed page did not error")
	}
	if n := d.FreePages(); n != 1 {
		t.Fatalf("FreePages = %d, want 1", n)
	}
	pid, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if pid != pids[1] {
		t.Fatalf("Allocate reused %d, want freed page %d", pid, pids[1])
	}
	if n := d.NumPages(); n != 3 {
		t.Fatalf("NumPages after reuse = %d, want 3 (no growth)", n)
	}
	// Reused pages read as zeroes, like fresh ones.
	if err := d.ReadPage(pid, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("reused page byte %d = %d, want 0", i, b)
		}
	}
}

func TestFileDiskFreeReuse(t *testing.T) {
	d, err := OpenFileDisk(filepath.Join(t.TempDir(), "disk"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a, _ := d.Allocate()
	b, _ := d.Allocate()
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err == nil {
		t.Fatal("double free did not error")
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPage(a, buf); err == nil {
		t.Fatal("read of freed page did not error")
	}
	pid, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if pid != a {
		t.Fatalf("Allocate reused %d, want freed page %d", pid, a)
	}
	if n := d.NumPages(); n != 2 {
		t.Fatalf("NumPages = %d, want 2", n)
	}
	_ = b
}

// TestRestoreRejectsBadAllocatorState feeds both durable disks allocator
// states no checkpoint can have written — a page count past the device, a
// free page out of range, one free page twice (Allocate would hand it out
// twice) — and requires each to be refused with the disk as it was: same
// page count, same free list, the file not truncated. A sound state then
// restores as asked.
func TestRestoreRejectsBadAllocatorState(t *testing.T) {
	mem := NewMemDisk()
	file, err := OpenFileDisk(filepath.Join(t.TempDir(), "disk"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, d := range map[string]DurableDisk{"mem": mem, "file": file} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				if _, err := d.Allocate(); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Free(2); err != nil {
				t.Fatal(err)
			}
			for _, bad := range []struct {
				n    int64
				free []PageID
			}{
				{6, nil},
				{1 << 40, nil},
				{-1, nil},
				{4, []PageID{5}},
				{4, []PageID{InvalidPage}},
				{4, []PageID{3, 1, 3}},
			} {
				if err := d.Restore(bad.n, bad.free); err == nil {
					t.Fatalf("Restore(%d, %v) succeeded", bad.n, bad.free)
				}
				if n, fl := d.NumPages(), d.FreeList(); n != 5 || len(fl) != 1 || fl[0] != 2 {
					t.Fatalf("refused Restore(%d, %v) left %d pages, free list %v", bad.n, bad.free, n, fl)
				}
			}
			if fd, ok := d.(*FileDisk); ok {
				fi, err := fd.f.Stat()
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() != 5*PageSize {
					t.Fatalf("refused Restores left the file at %d bytes, want %d", fi.Size(), 5*PageSize)
				}
			}
			if err := d.Restore(4, []PageID{3}); err != nil {
				t.Fatal(err)
			}
			for _, want := range []PageID{3, 5} {
				if pid, err := d.Allocate(); err != nil || pid != want {
					t.Fatalf("Allocate after Restore = %d, %v; want %d", pid, err, want)
				}
			}
		})
	}
}

func TestBufferPoolFreePage(t *testing.T) {
	for _, kind := range diskKinds {
		t.Run("disk="+kind+"/shards=1", func(t *testing.T) {
			testBufferPoolFreePage(t, newTestDisk(t, kind))
		})
	}
}

func testBufferPoolFreePage(t *testing.T, d DiskManager) {
	bp := NewBufferPool(d, 8)
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pid := f.PID()
	f.Data()[0] = 0xAB
	// Freeing while pinned must fail.
	if err := bp.FreePage(pid); err == nil {
		t.Fatal("free of pinned page did not error")
	}
	bp.Unpin(f, true)
	// Freeing a resident dirty page must not flush it: the disk would
	// reject the write of a freed page.
	if err := bp.FreePage(pid); err != nil {
		t.Fatal(err)
	}
	// The frame is invalid now; evicting it must not write either. Fill the
	// pool to cycle every frame.
	for i := 0; i < 16; i++ {
		nf, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(nf, true)
	}
	// The freed pid comes back on the next allocation after the pool's
	// fill pages; drain the free list and check the reuse reads zeroed.
	for d.FreePages() > 0 {
		nf, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(nf, false)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := bp.check(); err != nil {
		t.Fatal(err)
	}
}

// Drop and recreate a populated table repeatedly; the allocated-page count
// must not grow after the first cycle.
func TestDropTableReusesPages(t *testing.T) {
	db := Open(Options{Frames: 64})
	schema := NewSchema(Column{Name: "oid", Kind: KInt64}, Column{Name: "score", Kind: KFloat64})
	build := func() {
		tb, err := db.CreateTable("T", schema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.AddIndex("oid", func(tp Tuple) []byte { return EncodeKey(tp[0]) }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			if _, err := tb.Insert(Tuple{I64(int64(i)), F64(float64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	build()
	if err := db.DropTable("T"); err != nil {
		t.Fatal(err)
	}
	after1 := db.Disk().NumPages()
	if free := db.Disk().FreePages(); free == 0 {
		t.Fatal("DropTable freed no pages")
	}
	for i := 0; i < 3; i++ {
		build()
		if err := db.DropTable("T"); err != nil {
			t.Fatal(err)
		}
		if n := db.Disk().NumPages(); n != after1 {
			t.Fatalf("cycle %d: NumPages = %d, want %d (drop/recreate must not grow the disk)", i, n, after1)
		}
	}
}

func TestTruncateReusesPages(t *testing.T) {
	db := Open(Options{Frames: 64})
	schema := NewSchema(Column{Name: "oid", Kind: KInt64}, Column{Name: "score", Kind: KFloat64})
	tb, err := db.CreateTable("T", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddIndex("oid", func(tp Tuple) []byte { return EncodeKey(tp[0]) }); err != nil {
		t.Fatal(err)
	}
	fill := func() {
		for i := 0; i < 4000; i++ {
			if _, err := tb.Insert(Tuple{I64(int64(i)), F64(float64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	if err := tb.Truncate(); err != nil {
		t.Fatal(err)
	}
	after1 := db.Disk().NumPages()
	for i := 0; i < 3; i++ {
		fill()
		if err := tb.Truncate(); err != nil {
			t.Fatal(err)
		}
		if n := db.Disk().NumPages(); n != after1 {
			t.Fatalf("cycle %d: NumPages = %d, want %d (truncate/refill must not grow the disk)", i, n, after1)
		}
	}
	// Table still works after the cycles.
	if _, err := tb.Insert(Tuple{I64(1), F64(1)}); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 1 {
		t.Fatalf("rows = %d", tb.Rows())
	}
}

func TestSortSpillFreesRunPages(t *testing.T) {
	db := Open(Options{Frames: 64})
	schema := NewSchema(Column{Name: "k", Kind: KInt64})
	var rows []Tuple
	for i := 4095; i >= 0; i-- {
		rows = append(rows, Tuple{I64(int64(i))})
	}
	sortOnce := func() {
		it, err := SortByCols(db.Pool(), schema, NewSliceIter(rows), 4*PageSize, "k")
		if err != nil {
			t.Fatal(err)
		}
		prev := int64(-1)
		for {
			tp, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if v := tp[0].Int(); v != prev+1 {
				t.Fatalf("out of order: %d after %d", v, prev)
			} else {
				prev = v
			}
		}
	}
	sortOnce()
	after1 := db.Disk().NumPages()
	if after1 == 0 {
		t.Fatal("sort did not spill")
	}
	for i := 0; i < 3; i++ {
		sortOnce()
		if n := db.Disk().NumPages(); n != after1 {
			t.Fatalf("sort cycle %d: NumPages = %d, want %d (run pages must be recycled)", i, n, after1)
		}
	}
	if n := db.Disk().FreePages(); int64(after1) != n {
		t.Fatalf("FreePages = %d, want all %d run pages back on the free list", n, after1)
	}
}
