package relstore

import (
	"errors"
	"fmt"
	"testing"
)

// The fuzz harness always builds the same sound tree — 400 keys, two levels:
// the root ends up on fuzzRootPID, the leftmost leaf on fuzzLeafPID — and
// then overwrites one of those two pages with the input.
const (
	fuzzKeys    = 400
	fuzzRootPID = PageID(3)
	fuzzLeafPID = PageID(1)
)

func fuzzTree(tb testing.TB) *BTree {
	tb.Helper()
	tr, err := NewBTree(NewBufferPool(NewMemDisk(), 16))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < fuzzKeys; i++ {
		if err := tr.Insert(key64(int64(i*3)), EncodeRID(RID{Page: PageID(i + 1)})); err != nil {
			tb.Fatal(err)
		}
	}
	if tr.height != 2 || tr.root != fuzzRootPID {
		tb.Fatalf("harness tree: height %d, root %d", tr.height, tr.root)
	}
	return tr
}

func pageImage(tb testing.TB, bp *BufferPool, pid PageID) []byte {
	tb.Helper()
	f, err := bp.Fetch(pid)
	if err != nil {
		tb.Fatal(err)
	}
	defer bp.Unpin(f, false)
	return append([]byte(nil), f.Data()...)
}

// FuzzBTreeNode installs an arbitrary 4 KiB image as a node of a tree — its
// root, or a leaf under a sound root — and runs every operation over it. A
// damaged node is a reported outcome: each call returns, with a result or
// with an error that wraps ErrCorruptNode; nothing panics, nothing walks a
// cycle forever, no frame stays pinned.
func FuzzBTreeNode(f *testing.F) {
	tr := fuzzTree(f)
	empty := make([]byte, PageSize)
	btInit(empty, true, InvalidPage, InvalidPage)
	for _, img := range [][]byte{
		pageImage(f, tr.bp, fuzzLeafPID),
		pageImage(f, tr.bp, fuzzRootPID),
		empty,
	} {
		damage := []func(p []byte){
			func([]byte) {},
			func(p []byte) { btPutU16(p, 1, 0xFFFF) },            // count past the page
			func(p []byte) { btPutU16(p, btHdr, btHdr+2) },       // slot 0's cell inside the slot array
			func(p []byte) { btPutU16(p, btHdr+2, PageSize) },    // slot 0's key runs off the page
			func(p []byte) { btPutPID(p, 3, fuzzLeafPID) },       // next: the leaf itself
			func(p []byte) { btPutPID(p, 3, fuzzRootPID) },       // next: the root
			func(p []byte) { btPutPID(p, 7, InvalidPage) },       // no leftmost child
			func(p []byte) { btPutPID(p, 7, fuzzRootPID) },       // leftmost child: the root itself
			func(p []byte) { btPutPID(p, 7, PageID(1<<31)) },     // leftmost child past the disk
			func(p []byte) { p[0] ^= 1 },                         // the other kind of node
			func(p []byte) { btPutU16(p, 1, btU16(p, 1)+1) },     // one slot more than was written
			func(p []byte) { copy(p[btHdr:], p[btHdr+btSlot:]) }, // slots shifted: order and lengths off
		}
		for _, d := range damage {
			p := append([]byte(nil), img...)
			d(p)
			f.Add(p, false)
			f.Add(p, true)
		}
	}

	f.Fuzz(func(t *testing.T, img []byte, underRoot bool) {
		tr := fuzzTree(t)
		target := fuzzRootPID
		if underRoot {
			target = fuzzLeafPID
		}
		fr, err := tr.bp.Fetch(target)
		if err != nil {
			t.Fatal(err)
		}
		p := fr.Data()
		for i := range p {
			p[i] = 0
		}
		copy(p, img)
		if !underRoot && btIsLeaf(p) {
			tr.height = 1 // a leaf root is a one-level tree
		}
		tr.bp.Unpin(fr, true)

		reported := func(op string, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, ErrCorruptNode) {
				t.Fatalf("%s: error does not wrap ErrCorruptNode: %v", op, err)
			}
			if n := pinnedFrames(tr.bp); n != 0 {
				t.Fatalf("%s left %d frames pinned (err = %v)", op, n, err)
			}
		}
		// No leaf chain can be longer than the disk, no leaf holds more
		// cells than slots fit a page.
		scan := func(op string, from, to []byte) {
			t.Helper()
			calls, limit := int64(0), tr.bp.Disk().NumPages()*(PageSize/btSlot)
			err := tr.Scan(from, to, func(_, _ []byte) (bool, error) {
				if calls++; calls > limit {
					return true, fmt.Errorf("%d callbacks: the scan is going round in circles", calls)
				}
				return false, nil
			})
			reported(op, err)
		}
		probes := [][]byte{key64(0), key64(4), key64(3 * fuzzKeys / 2), key64(3 * fuzzKeys), {0}, {0xFF, 0xFF}}
		for _, k := range probes {
			_, _, err := tr.Get(k)
			reported("Get", err)
		}
		scan("Scan", nil, nil)
		scan("Scan range", key64(5), key64(900))
		_, _, _, err = tr.First()
		reported("First", err)
		// Enough new cells to fill whatever room the image claims to have and
		// split it, from both ends of the key space and into its middle.
		for i := 0; i < 300; i++ {
			k := key64(int64(i*3 + 1))
			switch i % 3 {
			case 1:
				k = key64(int64(-i))
			case 2:
				k = append(key64(int64(3*fuzzKeys+i)), make([]byte, i)...)
			}
			reported("Insert", tr.Insert(k, EncodeRID(RID{Page: 7})))
		}
		reported("Insert replacing", tr.Insert(key64(0), make([]byte, 200)))
		// Runs of two and three keys: the second and third go into the leaf
		// the first was routed to, on usage carried from key to key, so what
		// the image claims about its cells must be checked before each write
		// just as before a single insert's.
		rid := EncodeRID(RID{Page: 9})
		for i := 0; i < 120; i++ {
			a := int64(i*9 + 2)
			run := [][]byte{key64(a), key64(a + 3), append(key64(a+6), make([]byte, i%7)...)}
			switch i % 4 {
			case 1: // the image's own first keys, replaced by longer values
				run = [][]byte{key64(0), key64(3), key64(6)}
			case 2: // past every key: the right edge
				run = [][]byte{key64(int64(4*fuzzKeys + 2*i)), key64(int64(4*fuzzKeys + 2*i + 1))}
			case 3: // below every key, two of them
				run = run[:0:0]
				run = append(run, key64(int64(-3*i-2)), key64(int64(-3*i-1)))
			}
			vals := [][]byte{rid, make([]byte, 8+i%5), rid}[:len(run)]
			reported("InsertRun", tr.InsertRun(run, vals))
		}
		for _, k := range probes {
			_, err := tr.Delete(k)
			reported("Delete", err)
		}
		scan("Scan after writes", nil, nil)
		// The allocator, not the tree, is what notices a page reachable
		// twice, and it says so in its own words; FreePages must only come
		// back, with every pin dropped.
		err = tr.FreePages()
		if n := pinnedFrames(tr.bp); n != 0 {
			t.Fatalf("FreePages left %d frames pinned (err = %v)", n, err)
		}
	})
}
