package relstore

import (
	"math/rand"
	"testing"
)

// residentTree builds a tree of n random I64 keys with RID-sized values in a
// pool large enough to keep every node resident, and returns the keys in
// insertion order. 50 000 keys make it three levels high.
func residentTree(tb testing.TB, n int) (*BTree, [][]byte) {
	tb.Helper()
	tr, err := NewBTree(newTestPool(4096))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key64(rng.Int63())
		if err := tr.Insert(keys[i], EncodeRID(RID{Page: PageID(i + 1), Slot: uint16(i)})); err != nil {
			tb.Fatal(err)
		}
	}
	return tr, keys
}

func BenchmarkBTreeGet(b *testing.B) {
	tr, keys := residentTree(b, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := tr.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	tr, _ := residentTree(b, 50000)
	rng := rand.New(rand.NewSource(8))
	val := EncodeRID(RID{Page: 1})
	var key [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(AppendKey(key[:0], I64(rng.Int63())), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeScan(b *testing.B) {
	tr, _ := residentTree(b, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := 0
		err := tr.Scan(nil, nil, func(_, _ []byte) (bool, error) {
			seen++
			return seen == 1000, nil
		})
		if err != nil || seen != 1000 {
			b.Fatal(seen, err)
		}
	}
}

// TestBTreeAllocGates pins what in-page access is for: on a resident tree
// three levels high, an index probe, an insert that does not split, a delete
// and a scan allocate nothing, and Get allocates only the copy it returns.
func TestBTreeAllocGates(t *testing.T) {
	tr, keys := residentTree(t, 50000)
	if tr.Height() != 3 {
		t.Fatalf("height = %d, want 3", tr.Height())
	}
	ix := &Index{Name: "gate", Tree: tr}
	hit, miss := keys[len(keys)/2], key64(-1)
	fresh, val := key64(-2), EncodeRID(RID{Page: 9, Slot: 9})
	for _, g := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Index.Lookup hit", 0, func() {
			if _, ok, err := ix.Lookup(hit); err != nil || !ok {
				t.Fatal(ok, err)
			}
		}},
		{"Index.Lookup miss", 0, func() {
			if _, ok, err := ix.Lookup(miss); err != nil || ok {
				t.Fatal(ok, err)
			}
		}},
		// AllocsPerRun's warm-up call takes the one split the new key might
		// need; after it the leaf has room.
		{"BTree.Insert + BTree.Delete", 0, func() {
			if err := tr.Insert(fresh, val); err != nil {
				t.Fatal(err)
			}
			if ok, err := tr.Delete(fresh); err != nil || !ok {
				t.Fatal(ok, err)
			}
		}},
		{"BTree.Insert replacing", 0, func() {
			if err := tr.Insert(hit, val); err != nil {
				t.Fatal(err)
			}
		}},
		{"BTree.Scan of 1000 keys", 1, func() {
			seen := 0
			err := tr.Scan(nil, nil, func(_, _ []byte) (bool, error) {
				seen++
				return seen == 1000, nil
			})
			if err != nil || seen != 1000 {
				t.Fatal(seen, err)
			}
		}},
		{"BTree.Get", 1, func() {
			if _, ok, err := tr.Get(hit); err != nil || !ok {
				t.Fatal(ok, err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, g.fn); got > g.max {
			t.Errorf("%s: %v allocations per run, want at most %v", g.name, got, g.max)
		}
	}
}
