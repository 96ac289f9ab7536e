package relstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "oid", Kind: KInt64},
		Column{Name: "name", Kind: KString},
		Column{Name: "score", Kind: KFloat64},
	)
}

func oidKey(tp Tuple) []byte { return EncodeKey(tp[0]) }

// fillTable inserts rows [lo, hi) keyed by oid.
func fillTable(t *testing.T, tb *Table, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		_, err := tb.Insert(Tuple{I64(int64(i)), Str(fmt.Sprintf("row-%d", i)), F64(float64(i) / 3)})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func checkTable(t *testing.T, tb *Table, n int) {
	t.Helper()
	if got := tb.Rows(); got != int64(n) {
		t.Fatalf("%s: rows = %d, want %d", tb.Name, got, n)
	}
	seen := 0
	err := tb.Scan(func(_ RID, tp Tuple) (bool, error) {
		seen++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("%s: scanned %d rows, want %d", tb.Name, seen, n)
	}
	ix := tb.Index("oid")
	for _, probe := range []int{0, n / 2, n - 1} {
		rid, ok, err := ix.Lookup(EncodeKey(I64(int64(probe))))
		if err != nil || !ok {
			t.Fatalf("%s: lookup oid %d: ok=%v err=%v", tb.Name, probe, ok, err)
		}
		tp, err := tb.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if tp[0].Int() != int64(probe) {
			t.Fatalf("%s: lookup oid %d returned row %d", tb.Name, probe, tp[0].Int())
		}
	}
}

// TestDurableFileRoundTrip checkpoints a file-backed DB, closes it, reopens
// it, and verifies catalog, rows, index lookups, and allocator state all
// survive — the satellite FileDisk close/reopen coverage plus the tentpole
// reopen path in one.
func TestDurableFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crawl.db")
	db, err := CreateFile(path, Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddIndex("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb, 0, 500)
	// Free some pages so the manifest's free list is non-trivial.
	tb2, err := db.CreateTable("TMP", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb2, 0, 300)
	if err := db.DropTable("TMP"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb, 500, 700) // second epoch exercises the journal path
	// Re-grow and re-drop a scratch table so the free list is non-empty at
	// close (the fills above may have consumed the first drop's pages).
	tb3, err := db.CreateTable("TMP2", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb3, 0, 300)
	if err := db.DropTable("TMP2"); err != nil {
		t.Fatal(err)
	}
	// Checkpoint now and capture the allocator state; the close-time
	// checkpoint below has nothing dirty, so it changes none of it.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantPages, wantFree := db.Disk().NumPages(), db.Disk().FreePages()
	if wantFree == 0 {
		t.Fatal("test wants a non-empty free list to round-trip")
	}
	wantList := db.durable.disk.FreeList()
	if err := db.Close(); err != nil { // Close checkpoints durable DBs
		t.Fatal(err)
	}

	db2, err := OpenFile(path, Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.Durable() {
		t.Fatal("reopened DB is not durable")
	}
	rt := db2.Table("T")
	if rt == nil {
		t.Fatal("table T missing after reopen")
	}
	if err := rt.BindIndexKey("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	checkTable(t, rt, 700)
	if got := db2.Disk().NumPages(); got != wantPages {
		t.Fatalf("NumPages after reopen = %d, want %d", got, wantPages)
	}
	if got := db2.Disk().FreePages(); got != wantFree {
		t.Fatalf("FreePages after reopen = %d, want %d", got, wantFree)
	}
	gotList := db2.durable.disk.FreeList()
	for i := range wantList {
		if gotList[i] != wantList[i] {
			t.Fatalf("free list order diverged at %d: got %d, want %d", i, gotList[i], wantList[i])
		}
	}
	// The reopened DB keeps working: inserts, another checkpoint, reopen.
	fillTable(t, rt, 700, 800)
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCrashLosesOnlyEpoch simulates a crash over a MemDisk: work
// after the last checkpoint lives only in the buffer pool, so discarding
// the DB and reopening the same disk recovers exactly the checkpointed
// state — nothing more, nothing less.
func TestDurableCrashLosesOnlyEpoch(t *testing.T) {
	disk := NewMemDisk()
	db, err := OpenDurable(disk, Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddIndex("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb, 0, 400)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb, 400, 900) // lost: never checkpointed

	// Crash: drop the DB and pool on the floor, reopen the disk.
	db2, err := OpenDurable(disk, Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	rt := db2.Table("T")
	if err := rt.BindIndexKey("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	checkTable(t, rt, 400)
	// And the recovered DB can go on to do the same work again.
	fillTable(t, rt, 400, 900)
	checkTable(t, rt, 900)
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableStealCrashRecovers runs a durable table through a pool far
// smaller than what it dirties between checkpoints: pages the last manifest
// does not reference are written back as the pool needs their frames, a disk
// fault inside one of those write-backs surfaces as the insert's error, and
// reopening the disk recovers exactly the last checkpoint — whatever the
// stolen pages left beyond its page count or on its free list is discarded.
func TestDurableStealCrashRecovers(t *testing.T) {
	mem := NewMemDisk()
	fd := NewFaultDisk(mem, -1)
	db, err := OpenDurable(fd, Options{Frames: 16})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddIndex("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb, 0, 400) // more pages than frames already
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.pool.HeldDirty() != 0 {
		t.Fatalf("HeldDirty = %d right after a checkpoint", db.pool.HeldDirty())
	}
	// No checkpoint runs from here on, so every disk write is a steal.
	w0 := fd.Stats().Writes.Load()
	fd.Arm(25)
	var insErr error
	for i := 400; i < 20000 && insErr == nil; i++ {
		_, insErr = tb.Insert(Tuple{I64(int64(i)), Str(fmt.Sprintf("row-%d", i)), F64(1)})
	}
	if !errors.Is(insErr, ErrInjectedFault) {
		t.Fatalf("insert error = %v, want the injected fault from a steal write-back", insErr)
	}
	if got := fd.Stats().Writes.Load() - w0; got != 25 {
		t.Fatalf("%d pages written back before the fault, want 25", got)
	}
	if held := db.pool.HeldDirty(); held == 0 || held >= 16 {
		t.Fatalf("HeldDirty = %d: the last checkpoint's dirtied pages must be resident, and fewer than the pool", held)
	}

	db2, err := OpenDurable(mem, Options{Frames: 16})
	if err != nil {
		t.Fatal(err)
	}
	rt := db2.Table("T")
	if err := rt.BindIndexKey("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	checkTable(t, rt, 400)
	fillTable(t, rt, 400, 1500)
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkTable(t, rt, 1500)
}

// TestDurableJournalRollsBack crashes in the middle of a checkpoint — after
// its journal commits, while FlushAll has already overwritten live pages in
// place — and verifies the journal replay restores the previous
// generation's pages exactly.
func TestDurableJournalRollsBack(t *testing.T) {
	mem := NewMemDisk()
	fd := NewFaultDisk(mem, -1)
	db, err := OpenDurable(fd, Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddIndex("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb, 0, 300)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Mutate rows in place so live pages are dirty (and will be journaled).
	updated := 0
	err = tb.Scan(func(rid RID, tp Tuple) (bool, error) {
		if tp[0].Int()%3 == 0 {
			tp[2] = F64(-1)
			updated++
			return false, tb.Update(rid, tp)
		}
		return false, nil
	})
	if err != nil || updated == 0 {
		t.Fatalf("updates: %d, err %v", updated, err)
	}
	dirtyLive := len(db.pool.DirtyPages())
	if dirtyLive == 0 {
		t.Fatal("no dirty pages; journal path not exercised")
	}

	// Let the journal commit and some of the flush land, then cut power:
	// journal copies + 1 root + a few data pages, then every write fails.
	fd.Arm(int64(dirtyLive) + 1 + 3)
	if err := db.Checkpoint(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("checkpoint error = %v, want injected fault", err)
	}
	if !fd.Tripped() {
		t.Fatal("fault never fired")
	}

	// Reboot over the raw MemDisk. The torn checkpoint must roll back.
	db2, err := OpenDurable(mem, Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	rt := db2.Table("T")
	if err := rt.BindIndexKey("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	checkTable(t, rt, 300)
	// Every score is the original one: the in-place updates vanished.
	err = rt.Scan(func(_ RID, tp Tuple) (bool, error) {
		if tp[2].Float() == -1 {
			return true, fmt.Errorf("oid %d: post-checkpoint update survived the crash", tp[0].Int())
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The recovered DB checkpoints and survives another reopen.
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db3, err := OpenDurable(mem, Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	rt3 := db3.Table("T")
	if err := rt3.BindIndexKey("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	checkTable(t, rt3, 300)
}

// TestDurableTornManifestFallsBack kills the checkpoint at every write
// offset from the journal commit through the manifest root and verifies
// each torn state recovers to the previous generation.
func TestDurableTornManifestStress(t *testing.T) {
	for _, cut := range []int64{0, 1, 2, 5, 9, 14, 20, 33} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			mem := NewMemDisk()
			fd := NewFaultDisk(mem, -1)
			db, err := OpenDurable(fd, Options{Frames: 128})
			if err != nil {
				t.Fatal(err)
			}
			tb, err := db.CreateTable("T", testSchema())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.AddIndex("oid", oidKey); err != nil {
				t.Fatal(err)
			}
			fillTable(t, tb, 0, 150)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			fillTable(t, tb, 150, 260)
			fd.Arm(cut)
			err = db.Checkpoint()
			fd.Disarm()
			if err == nil {
				// Short checkpoints may finish under large budgets; then
				// recovery must see the NEW state instead.
				db2, err := OpenDurable(mem, Options{Frames: 128})
				if err != nil {
					t.Fatal(err)
				}
				rt := db2.Table("T")
				if err := rt.BindIndexKey("oid", oidKey); err != nil {
					t.Fatal(err)
				}
				checkTable(t, rt, 260)
				return
			}
			db2, err := OpenDurable(mem, Options{Frames: 128})
			if err != nil {
				t.Fatal(err)
			}
			rt := db2.Table("T")
			if err := rt.BindIndexKey("oid", oidKey); err != nil {
				t.Fatal(err)
			}
			checkTable(t, rt, 150)
		})
	}
}

// TestOpenFileErrors pins the "error, not panic" contract for bad files.
func TestOpenFileErrors(t *testing.T) {
	dir := t.TempDir()

	if _, err := OpenFile(filepath.Join(dir, "absent.db"), Options{}); err == nil {
		t.Fatal("OpenFile of a missing path did not error")
	}

	empty := filepath.Join(dir, "empty.db")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(empty, Options{}); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("OpenFile of an empty file: %v, want ErrNoManifest", err)
	}

	garbage := filepath.Join(dir, "garbage.db")
	junk := make([]byte, PageSize*4)
	for i := range junk {
		junk[i] = byte(i * 131)
	}
	if err := os.WriteFile(garbage, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(garbage, Options{}); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("OpenFile of garbage: %v, want ErrNoManifest", err)
	}

	// A partial (truncated mid-page) file still errors cleanly.
	partial := filepath.Join(dir, "partial.db")
	if err := os.WriteFile(partial, junk[:PageSize+100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(partial, Options{}); err == nil {
		t.Fatal("OpenFile of a partial file did not error")
	}
}

// TestOpenRefusesOlderLayout: a file whose manifest roots carry an older
// layout version — each of them — is refused with ErrLayoutVersion naming
// both versions — with both roots at that version, and with one of them
// torn, which leaves no valid root — and the refusal leaves the file's bytes
// as they were.
func TestOpenRefusesOlderLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "older.db")
	db, err := CreateFile(path, Options{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb, 0, 300)
	if err := db.Checkpoint(); err != nil { // both roots now hold a manifest
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(1); v < manifestVersion; v++ {
		// The older layout: the same frames stamped version v (the CRC
		// covers the payload only).
		older := bytes.Clone(current)
		for _, root := range []PageID{manifestRootA, manifestRootB} {
			binary.LittleEndian.PutUint32(older[int(root-1)*PageSize+4:], v)
		}
		torn := func(root PageID) []byte {
			b := bytes.Clone(older)
			clear(b[int(root-1)*PageSize : int(root-1)*PageSize+512]) // the header's sector never landed
			return b
		}
		for _, c := range []struct {
			name string
			file []byte
		}{
			{fmt.Sprintf("both roots at version %d", v), older},
			{fmt.Sprintf("version %d, root A torn", v), torn(manifestRootA)},
			{fmt.Sprintf("version %d, root B torn", v), torn(manifestRootB)},
		} {
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenFile(path, Options{Frames: 64})
			want := fmt.Sprintf("layout version %d, this release reads %d", v, manifestVersion)
			if !errors.Is(err, ErrLayoutVersion) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: OpenFile returned %v, want ErrLayoutVersion naming %q", c.name, err, want)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, c.file) {
				t.Errorf("%s: the refused open changed the file (%v)", c.name, err)
			}
		}
	}
	// The file as written opens.
	if err := os.WriteFile(path, current, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenFile(path, Options{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	if tb := db2.Table("T"); tb == nil || tb.Rows() != 300 {
		t.Fatal("the file as written does not reopen with its 300 rows")
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointNotDurable pins the guard on plain Open.
func TestCheckpointNotDurable(t *testing.T) {
	db := Open(Options{})
	if err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("err = %v, want ErrNotDurable", err)
	}
	if db.Durable() {
		t.Fatal("plain Open reported durable")
	}
}

// TestBindIndexKeyUnknown pins the error path for a bad re-bind.
func TestBindIndexKeyUnknown(t *testing.T) {
	db := Open(Options{})
	tb, err := db.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BindIndexKey("nope", oidKey); err == nil {
		t.Fatal("bind of unknown index did not error")
	}
}

// TestDurableManyEpochs runs many checkpoint epochs with churn (inserts, and
// in-place updates that re-key the index) and reopens after the last,
// checking the state matches the last checkpoint.
func TestDurableManyEpochs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.db")
	db, err := CreateFile(path, Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddIndex("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for epoch := 0; epoch < 6; epoch++ {
		fillTable(t, tb, rows, rows+120)
		rows += 120
		if epoch%2 == 1 {
			// Churn: re-key every row divisible by 7 this epoch to a
			// negative oid, which no later epoch divides by 7 again.
			var churn []RID
			err := tb.Scan(func(rid RID, tp Tuple) (bool, error) {
				if tp[0].Int()%7 == 0 {
					churn = append(churn, rid)
				}
				return false, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Updating by saved RID is safe: heap RIDs are stable.
			for _, rid := range churn {
				tp, err := tb.Get(rid)
				if err != nil {
					t.Fatal(err)
				}
				nt := tp.Clone()
				nt[0] = I64(-tp[0].Int() - 1)
				if err := tb.UpdateFrom(rid, tp, nt); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	want := tb.Rows()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenFile(path, Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rt := db2.Table("T")
	if err := rt.BindIndexKey("oid", oidKey); err != nil {
		t.Fatal(err)
	}
	if rt.Rows() != want {
		t.Fatalf("rows after many epochs = %d, want %d", rt.Rows(), want)
	}
	if n := rt.Index("oid").Tree.Len(); n != want {
		t.Fatalf("oid index holds %d keys after many epochs, want %d", n, want)
	}
	n := 0
	err = rt.Scan(func(_ RID, tp Tuple) (bool, error) {
		n++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != want {
		t.Fatalf("scan rows = %d, want %d", n, want)
	}
}
