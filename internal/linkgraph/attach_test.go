package linkgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/relstore"
)

// TestAttachParentShapedFile reopens a durable LINK store written in the
// layout that predates the in-memory directories — every stripe carrying a
// bysrc (oid_src, oid_dst) B+tree, and a bydst (oid_dst, oid_src) one — and
// requires Attach to refuse a stripe count short of the file's, drop both
// trees (their pages reach the free list at the next checkpoint), rebuild
// out-edge directories equal to the heaps, and leave a store whose ingest,
// reads and logged weights work: new edges insert, stored ones dedup,
// ScanBySrc reads a source's edges in ascending dst order, and a logged
// weight reads on exactly the edges into its target.
func TestAttachParentShapedFile(t *testing.T) {
	const stripes = 3
	disk := relstore.NewMemDisk()
	db, err := relstore.OpenDurable(disk, relstore.Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	var tabs []*relstore.Table
	for i := 0; i < stripes; i++ {
		tab, err := db.CreateTable(fmt.Sprintf("LINK#%d", i), Schema())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.AddIndex("bysrc", func(t relstore.Tuple) []byte {
			return relstore.EncodeKey(t[ColSrc], t[ColDst])
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.AddIndex("bydst", func(t relstore.Tuple) []byte {
			return relstore.EncodeKey(t[ColDst], t[ColSrc])
		}); err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	rng := rand.New(rand.NewSource(30))
	stored := map[[2]int64]bool{}
	for len(stored) < 1500 {
		edge := e(rng.Int63n(60), rng.Int63n(90))
		if stored[[2]int64{edge.Src, edge.Dst}] {
			continue
		}
		stored[[2]int64{edge.Src, edge.Dst}] = true
		if _, err := tabs[int(uint64(edge.Src)%stripes)].Insert(edge.tuple()); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil { // Close checkpoints durable DBs
		t.Fatal(err)
	}

	db2, err := relstore.OpenDurable(disk, relstore.Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(db2, stripes-1); err == nil {
		t.Fatalf("Attach at %d stripes of a %d-stripe file succeeded", stripes-1, stripes)
	}
	freeBefore := disk.FreePages()
	s, err := Attach(db2, stripes)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stripes; i++ {
		for _, name := range []string{"bysrc", "bydst"} {
			if db2.Table(fmt.Sprintf("LINK#%d", i)).Index(name) != nil {
				t.Fatalf("LINK#%d still has its %s index after Attach", i, name)
			}
		}
	}
	if disk.FreePages() <= freeBefore {
		t.Fatalf("free list %d pages after dropping the bysrc and bydst trees, %d before", disk.FreePages(), freeBefore)
	}
	if err := s.CheckDirectory(); err != nil {
		t.Fatal(err)
	}

	var b Batch
	b.Add(e(1, 7))
	b.Add(e(1, 500))
	b.Add(e(200, 7))
	inserted, err := s.Apply(&b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, edge := range b.Edges() {
		if want := !stored[[2]int64{edge.Src, edge.Dst}]; inserted[i] != want {
			t.Errorf("edge %d->%d inserted = %v, want %v", edge.Src, edge.Dst, inserted[i], want)
		}
		stored[[2]int64{edge.Src, edge.Dst}] = true
	}
	for src := int64(0); src < 60; src++ {
		var want, got []int64
		for edge := range stored {
			if edge[0] == src {
				want = append(want, edge[1])
			}
		}
		slices.Sort(want)
		err := s.ScanBySrc(src, func(edge Edge) (bool, error) {
			got = append(got, edge.Dst)
			return false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ScanBySrc(%d) = %v, want %v", src, got, want)
		}
	}
	if err := s.UpdateIncomingFwd(7, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := s.Rows(); got != int64(len(stored)) {
		t.Fatalf("store holds %d edges, want %d", got, len(stored))
	}
	into7 := 0
	err = s.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		edge := EdgeOf(tp)
		if want := e(edge.Src, edge.Dst).WgtFwd; edge.Dst == 7 {
			into7++
			if edge.WgtFwd != 0.25 {
				t.Errorf("edge %d->7 wgt_fwd = %v, want the logged 0.25", edge.Src, edge.WgtFwd)
			}
		} else if edge.WgtFwd != want {
			t.Errorf("edge %d->%d wgt_fwd = %v, want its ingest weight %v", edge.Src, edge.Dst, edge.WgtFwd, want)
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if into7 < 2 {
		t.Fatalf("%d edges into 7: the logged weight exercised nothing", into7)
	}
	if err := s.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}
