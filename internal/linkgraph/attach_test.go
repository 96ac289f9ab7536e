package linkgraph

import (
	"math/rand"
	"slices"
	"testing"

	"focus/internal/relstore"
)

// TestAttachReopensCheckpointedStore reopens a durable LINK store that
// ingest built and a checkpoint committed, and requires Attach to refuse a
// stripe count short of the file's, rebuild out-edge directories equal to
// the heaps, and leave a store whose ingest, reads and logged weights work:
// new edges insert, stored ones dedup, OutEdgesLocked reads a source's
// edges in ascending dst order, and a logged weight reads on exactly the edges into
// its target.
func TestAttachReopensCheckpointedStore(t *testing.T) {
	const stripes = 3
	disk := relstore.NewMemDisk()
	db, err := relstore.OpenDurable(disk, relstore.Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := New(db, stripes)
	if err != nil {
		t.Fatal(err)
	}
	// Pages of ten random out-links, a source coming back many times, so
	// every source's chain interleaves with the others' on the stripes'
	// pages.
	rng := rand.New(rand.NewSource(30))
	stored := map[[2]int64]bool{}
	var in Batch
	for len(stored) < 1500 {
		in.Reset()
		src := rng.Int63n(60)
		for range 10 {
			edge := e(src, rng.Int63n(90))
			in.Add(edge)
			stored[[2]int64{edge.Src, edge.Dst}] = true
		}
		if _, err := orig.Apply(&in, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := orig.Rows(); got != int64(len(stored)) {
		t.Fatalf("ingest stored %d edges, want %d", got, len(stored))
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
	s, err := Attach(db2, stripes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckDirectory(); err != nil {
		t.Fatal(err)
	}

	late := []Edge{e(1, 7), e(1, 500), e(200, 7)}
	inserted := applyPages(t, s, late, nil)
	for i, edge := range late {
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
		for _, edge := range outEdges(t, s, src) {
			got = append(got, edge.Dst)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("out-edges of %d = %v, want %v", src, got, want)
		}
	}
	if err := s.UpdateIncomingFwd(7, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := s.Rows(); got != int64(len(stored)) {
		t.Fatalf("store holds %d edges, want %d", got, len(stored))
	}
	into7 := 0
	for _, edge := range scanEdges(t, s) {
		if want := e(edge.Src, edge.Dst).WgtFwd; edge.Dst == 7 {
			into7++
			if edge.WgtFwd != 0.25 {
				t.Errorf("edge %d->7 wgt_fwd = %v, want the logged 0.25", edge.Src, edge.WgtFwd)
			}
		} else if edge.WgtFwd != want {
			t.Errorf("edge %d->%d wgt_fwd = %v, want its ingest weight %v", edge.Src, edge.Dst, edge.WgtFwd, want)
		}
	}
	if into7 < 2 {
		t.Fatalf("%d edges into 7: the logged weight exercised nothing", into7)
	}
	if err := s.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}
