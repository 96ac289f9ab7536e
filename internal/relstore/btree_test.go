package relstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key64(i int64) []byte { return EncodeKey(I64(i)) }

func TestBTreeBasic(t *testing.T) {
	bp := newTestPool(64)
	tr, err := NewBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get a = %q %v %v", v, ok, err)
	}
	if _, ok, _ := tr.Get([]byte("zz")); ok {
		t.Fatal("phantom key")
	}
	// Replace.
	if err := tr.Insert([]byte("a"), []byte("one-longer-value")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = tr.Get([]byte("a"))
	if !ok || string(v) != "one-longer-value" {
		t.Fatalf("replaced get = %q", v)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestBTreeSplitsAndOrder(t *testing.T) {
	bp := newTestPool(256)
	tr, _ := NewBTree(bp)
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		val := fmt.Sprintf("val-%d", i)
		if err := tr.Insert(key64(int64(i)), []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d, expected splits", tr.Height())
	}
	// Full scan must be ordered and complete.
	var prev []byte
	count := 0
	err := tr.Scan(nil, nil, func(k, v []byte) (bool, error) {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			return true, fmt.Errorf("scan out of order")
		}
		prev = append(prev[:0], k...)
		count++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan count = %d", count)
	}
	// Point lookups.
	for i := 0; i < n; i += 97 {
		v, ok, err := tr.Get(key64(int64(i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %d = %q %v %v", i, v, ok, err)
		}
	}
}

func TestBTreeRangeScan(t *testing.T) {
	bp := newTestPool(128)
	tr, _ := NewBTree(bp)
	for i := 0; i < 1000; i++ {
		tr.Insert(key64(int64(i)), []byte{byte(i)})
	}
	var got []int64
	err := tr.Scan(key64(100), key64(110), func(k, v []byte) (bool, error) {
		got = append(got, int64(binary.BigEndian.Uint64(k)^(1<<63)))
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestBTreeDelete(t *testing.T) {
	bp := newTestPool(128)
	tr, _ := NewBTree(bp)
	for i := 0; i < 500; i++ {
		tr.Insert(key64(int64(i)), []byte("x"))
	}
	for i := 0; i < 500; i += 2 {
		ok, err := tr.Delete(key64(int64(i)))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if ok, _ := tr.Delete(key64(0)); ok {
		t.Fatal("double delete reported present")
	}
	if tr.Len() != 250 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 500; i++ {
		_, ok, _ := tr.Get(key64(int64(i)))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v want %v", i, ok, want)
		}
	}
	// Reinsert deleted keys.
	for i := 0; i < 500; i += 2 {
		if err := tr.Insert(key64(int64(i)), []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("len after reinsert = %d", tr.Len())
	}
}

func TestBTreeFirst(t *testing.T) {
	bp := newTestPool(64)
	tr, _ := NewBTree(bp)
	if _, _, ok, _ := tr.First(); ok {
		t.Fatal("empty tree has a first key")
	}
	tr.Insert(key64(30), []byte("c"))
	tr.Insert(key64(10), []byte("a"))
	tr.Insert(key64(20), []byte("b"))
	k, v, ok, err := tr.First()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !bytes.Equal(k, key64(10)) || string(v) != "a" {
		t.Fatalf("first = %v %q", k, v)
	}
	// Drain in priority order, as the crawl frontier does.
	var order []string
	for {
		k, v, ok, err := tr.First()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		order = append(order, string(v))
		tr.Delete(k)
	}
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("drain order = %v", got)
	}
}

func TestBTreeRejectsBadCells(t *testing.T) {
	bp := newTestPool(64)
	tr, _ := NewBTree(bp)
	if err := tr.Insert(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := tr.Insert(make([]byte, 600), make([]byte, 600)); err == nil {
		t.Fatal("oversize cell accepted")
	}
}

func TestBTreeLargeCellsSplitSafely(t *testing.T) {
	// Cells near MaxCellLen stress the split-fit guarantee.
	bp := newTestPool(256)
	tr, _ := NewBTree(bp)
	val := make([]byte, MaxCellLen-16)
	for i := 0; i < 200; i++ {
		if err := tr.Insert(key64(int64(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	tr.Scan(nil, nil, func(k, v []byte) (bool, error) {
		if len(v) != len(val) {
			return true, fmt.Errorf("bad value length %d", len(v))
		}
		count++
		return false, nil
	})
	if count != 200 {
		t.Fatalf("count = %d", count)
	}
}

// TestBTreeAgainstMapReference drives the tree with random inserts, replaces
// (longer and shorter) and deletes over keys of 1-200 bytes and values from
// empty to whatever MaxCellLen leaves, against a map, at a pool that holds
// the whole tree and at one of four frames. Phases lean toward inserting,
// then deleting, then refilling, so pages fill, go to holes and are
// compacted in place. Every 500 operations the structural checker runs
// (which also fails on a pin left behind) and a full scan is compared with
// the sorted reference.
func TestBTreeAgainstMapReference(t *testing.T) {
	for _, frames := range []int{4, 512} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			tr, err := NewBTree(newTestPool(frames))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			universe := make([][]byte, 2500)
			for i := range universe {
				universe[i] = make([]byte, 1+rng.Intn(200))
				rng.Read(universe[i])
			}
			ref := map[string]string{}
			verify := func(op int) {
				t.Helper()
				if err := tr.check(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				keys := make([]string, 0, len(ref))
				for k := range ref {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				i := 0
				err := tr.Scan(nil, nil, func(k, v []byte) (bool, error) {
					if i >= len(keys) || string(k) != keys[i] || string(v) != ref[keys[i]] {
						return true, fmt.Errorf("scan position %d disagrees with the reference", i)
					}
					i++
					return false, nil
				})
				if err != nil || i != len(keys) {
					t.Fatalf("op %d: scan saw %d of %d keys: %v", op, i, len(keys), err)
				}
			}
			const ops = 24000
			for op := 0; op < ops; op++ {
				deletes := 2 // in 10
				if phase := op / (ops / 6); phase == 2 || phase == 4 {
					deletes = 7
				}
				k := universe[rng.Intn(len(universe))]
				if rng.Intn(10) < deletes {
					ok, err := tr.Delete(k)
					if err != nil {
						t.Fatal(err)
					}
					if _, want := ref[string(k)]; ok != want {
						t.Fatalf("op %d: delete present=%v want %v", op, ok, want)
					}
					delete(ref, string(k))
				} else {
					// Half the values are index-entry sized, so that pages
					// hold many cells and the tree grows past two levels.
					vmax := MaxCellLen - len(k)
					if rng.Intn(2) == 0 {
						vmax = 16
					}
					v := make([]byte, rng.Intn(vmax+1))
					rng.Read(v)
					if err := tr.Insert(k, v); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					ref[string(k)] = string(v)
				}
				got, ok, err := tr.Get(k)
				if want, present := ref[string(k)]; err != nil || ok != present || string(got) != want {
					t.Fatalf("op %d: get after write: present=%v want %v: %v", op, ok, present, err)
				}
				if (op+1)%500 == 0 {
					verify(op)
				}
			}
			if tr.Height() < 3 {
				t.Fatalf("height = %d; the test means to cover internal splits", tr.Height())
			}
			if frames == 4 && tr.bp.Stats().Evictions == 0 {
				t.Fatal("four frames held the whole tree")
			}
		})
	}
}

// compactPage writes a node the way every file made before in-page access
// holds it: cells flush against the page end in slot order, no holes, and
// zeros in the header field its kind does not use.
func compactPage(leaf bool, next, left PageID, keys, vals [][]byte) []byte {
	p := make([]byte, PageSize)
	btInit(p, leaf, next, left)
	end := PageSize
	for i := range keys {
		end -= len(keys[i]) + len(vals[i])
		copy(p[end:], keys[i])
		copy(p[end+len(keys[i]):], vals[i])
		btPutSlot(p, i, end, len(keys[i]), len(vals[i]))
	}
	btPutU16(p, 1, len(keys))
	return p
}

// TestBTreeReadsCompactPages is the old-file compatibility proof: trees whose
// pages were laid out by the former whole-node writer are read, updated,
// grown and split by the in-page code.
func TestBTreeReadsCompactPages(t *testing.T) {
	pidVal := func(pid PageID) []byte {
		var b [4]byte
		btPutPID(b[:], 0, pid)
		return b[:]
	}
	cells := func(lo, hi int) (keys, vals [][]byte) {
		for i := lo; i < hi; i++ {
			keys = append(keys, key64(int64(i*2)))
			vals = append(vals, []byte(fmt.Sprintf("v%04d", i*2)))
		}
		return keys, vals
	}
	for _, tc := range []struct {
		name   string
		height int
		keys   int
		// pages by page id - 1; the root is the last
		pages func() [][]byte
	}{
		{"leaf root", 1, 150, func() [][]byte {
			k, v := cells(0, 150)
			return [][]byte{compactPage(true, InvalidPage, InvalidPage, k, v)}
		}},
		{"full leaf root", 1, 215, func() [][]byte {
			// 215 cells x (8 + 5 + 6) = 4085 bytes: not one byte to spare,
			// so the first new key splits a page nothing has touched.
			k, v := cells(0, 215)
			return [][]byte{compactPage(true, InvalidPage, InvalidPage, k, v)}
		}},
		{"internal root over two leaves", 2, 300, func() [][]byte {
			k1, v1 := cells(0, 150)
			k2, v2 := cells(150, 300)
			return [][]byte{
				compactPage(true, 2, InvalidPage, k1, v1),
				compactPage(true, InvalidPage, InvalidPage, k2, v2),
				compactPage(false, InvalidPage, 1, [][]byte{k2[0]}, [][]byte{pidVal(2)}),
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bp := newTestPool(64)
			var root PageID
			for _, img := range tc.pages() {
				f, err := bp.NewPage()
				if err != nil {
					t.Fatal(err)
				}
				copy(f.Data(), img)
				root = f.PID()
				bp.Unpin(f, true)
			}
			tr := &BTree{bp: bp, root: root, height: tc.height, size: int64(tc.keys)}
			if err := tr.check(); err != nil {
				t.Fatal(err)
			}
			want := map[int64]string{}
			for i := 0; i < tc.keys; i++ {
				want[int64(i*2)] = fmt.Sprintf("v%04d", i*2)
			}
			pagesBefore := bp.Disk().NumPages()
			// Odd keys are new, every tenth even key is replaced by a longer
			// value, every seventh deleted.
			for i := 0; i < tc.keys; i++ {
				k := int64(i * 2)
				if err := tr.Insert(key64(k+1), []byte("new")); err != nil {
					t.Fatal(err)
				}
				want[k+1] = "new"
				switch {
				case i%10 == 0:
					want[k] += "-and-a-longer-tail"
					if err := tr.Insert(key64(k), []byte(want[k])); err != nil {
						t.Fatal(err)
					}
				case i%7 == 0:
					if ok, err := tr.Delete(key64(k)); err != nil || !ok {
						t.Fatalf("delete %d: %v %v", k, ok, err)
					}
					delete(want, k)
				}
			}
			if err := tr.check(); err != nil {
				t.Fatal(err)
			}
			if bp.Disk().NumPages() == pagesBefore {
				t.Fatal("doubling the keys split nothing")
			}
			seen := 0
			err := tr.Scan(nil, nil, func(k, v []byte) (bool, error) {
				id := int64(binary.BigEndian.Uint64(k) ^ (1 << 63))
				if want[id] != string(v) {
					return true, fmt.Errorf("key %d = %q, want %q", id, v, want[id])
				}
				seen++
				return false, nil
			})
			if err != nil || seen != len(want) {
				t.Fatalf("scan saw %d of %d keys: %v", seen, len(want), err)
			}
		})
	}
}

// TestBTreeCompactsInPlace churns one leaf — delete a key, insert another —
// far past the point where the bytes ever written exceed a page. Holes are
// reclaimed by compaction, not by splitting: the tree stays one page.
func TestBTreeCompactsInPlace(t *testing.T) {
	bp := newTestPool(16)
	tr, _ := NewBTree(bp)
	val := make([]byte, 40)
	const resident = 60 // x (8 + 40 + 6) = 3240 bytes live
	for i := 0; i < resident; i++ {
		if err := tr.Insert(key64(int64(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := resident; i < 40*resident; i++ {
		// Deleting from the middle of the key range leaves the hole away
		// from the free gap, where only compaction can reach it.
		if ok, err := tr.Delete(key64(int64(i - resident/2))); err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
		if err := tr.Insert(key64(int64(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.Len() != resident || bp.Disk().NumPages() != 1 {
		t.Fatalf("height %d, %d keys, %d pages; want one leaf of %d", tr.Height(), tr.Len(), bp.Disk().NumPages(), resident)
	}
}

func TestBTreeQuickStringKeys(t *testing.T) {
	bp := newTestPool(512)
	tr, _ := NewBTree(bp)
	ref := map[string]string{}
	f := func(k, v string) bool {
		if len(k) == 0 || len(k)+len(v) > MaxCellLen {
			return true
		}
		if err := tr.Insert([]byte(k), []byte(v)); err != nil {
			return false
		}
		ref[k] = v
		got, ok, err := tr.Get([]byte(k))
		return err == nil && ok && string(got) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for k, v := range ref {
		got, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("lost key %q", k)
		}
	}
}

func TestBTreeSurvivesTinyPool(t *testing.T) {
	// The tree must work through heavy eviction with only 4 frames.
	bp := newTestPool(4)
	tr, _ := NewBTree(bp)
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(key64(int64(i)), []byte("payload-of-some-size")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i += 131 {
		_, ok, err := tr.Get(key64(int64(i)))
		if err != nil || !ok {
			t.Fatalf("get %d: %v %v", i, ok, err)
		}
	}
	if bp.Stats().Evictions == 0 {
		t.Fatal("expected evictions with tiny pool")
	}
}
