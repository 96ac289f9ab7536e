package linkgraph

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"focus/internal/relstore"
)

// snapshotAll is the crawler's barrier in miniature: lock every stripe,
// cut the snapshot, unlock.
func snapshotAll(t testing.TB, s *Store) *Snapshot {
	t.Helper()
	s.LockAll()
	sn, err := s.SnapshotLocked()
	s.UnlockAll()
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

func scanEdges(t testing.TB, rel interface {
	Scan(func(relstore.RID, relstore.Tuple) (bool, error)) error
}) []Edge {
	t.Helper()
	var out []Edge
	err := rel.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		out = append(out, EdgeOf(tp))
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotIsolationUnderWrites pins the snapshot contract: a snapshot
// cut at the barrier must keep serving the barrier-time image — same edges,
// same weights, same order — while inserts and logged forward weights keep
// changing what the live store reads underneath it. Two snapshots cut at
// the same point must both stay correct.
func TestSnapshotIsolationUnderWrites(t *testing.T) {
	s := newStore(t, 4)
	var b Batch
	for src := int64(1); src <= 20; src++ {
		b.Add(e(src, src+100))
		b.Add(e(src, 9))
	}
	if _, err := s.Apply(&b, nil); err != nil {
		t.Fatal(err)
	}
	want := scanEdges(t, s)

	sn1 := snapshotAll(t, s)
	sn2 := snapshotAll(t, s)
	if sn1.Rows() != int64(len(want)) {
		t.Fatalf("snapshot Rows = %d, want %d", sn1.Rows(), len(want))
	}

	// Change every stripe after the barrier: new edges and a logged weight.
	var b2 Batch
	for src := int64(21); src <= 40; src++ {
		b2.Add(e(src, src+100))
	}
	if _, err := s.Apply(&b2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateIncomingFwd(9, 0.3125); err != nil {
		t.Fatal(err)
	}

	for i, sn := range []*Snapshot{sn1, sn2} {
		got := scanEdges(t, sn)
		if len(got) != len(want) {
			t.Fatalf("snapshot %d: %d edges, want barrier-time %d", i+1, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("snapshot %d edge %d = %+v, want pre-write %+v", i+1, j, got[j], want[j])
			}
		}
	}
	// The live store did move on.
	live := scanEdges(t, s)
	if len(live) != len(want)+20 {
		t.Fatalf("live store has %d edges, want %d", len(live), len(want)+20)
	}

	// A second Scan reads the same cut: same edges, same order.
	again := scanEdges(t, sn1)
	if len(again) != len(want) {
		t.Fatalf("second Scan: %d edges, want %d", len(again), len(want))
	}
	for j := range want {
		if again[j] != want[j] {
			t.Fatalf("second Scan edge %d = %+v, want %+v", j, again[j], want[j])
		}
	}
}

// TestSnapshotLazyReadWithoutWrites: with nothing written after the
// barrier, a snapshot reads exactly what the live store does.
func TestSnapshotLazyReadWithoutWrites(t *testing.T) {
	s := newStore(t, 3)
	var b Batch
	for src := int64(1); src <= 9; src++ {
		b.Add(e(src, src*2))
	}
	if _, err := s.Apply(&b, nil); err != nil {
		t.Fatal(err)
	}
	want := scanEdges(t, s)
	sn := snapshotAll(t, s)
	got := scanEdges(t, sn)
	if len(got) != len(want) {
		t.Fatalf("lazy snapshot read: %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSnapshotConcurrentReadersAndWriters races snapshot consumption
// against live ingest and logged weights under -race: writers keep applying
// batches while each snapshot, taken mid-stream, is scanned by two
// concurrent readers. Every snapshot must read exactly the edges its
// barrier recorded, and both readers must agree tuple for tuple.
func TestSnapshotConcurrentReadersAndWriters(t *testing.T) {
	s := newStore(t, 8)
	const rounds, perRound = 12, 60
	var wg sync.WaitGroup
	errs := make(chan error, rounds*3)
	for r := 0; r < rounds; r++ {
		// One writer round, then a snapshot read raced against the next.
		var b Batch
		for k := 0; k < perRound; k++ {
			src := int64(r*perRound + k + 1)
			b.Add(e(src, src%97+1))
		}
		if _, err := s.Apply(&b, nil); err != nil {
			t.Fatal(err)
		}
		sn := snapshotAll(t, s)
		want := scanEdges(t, sn)
		if int64(len(want)) != sn.Rows() {
			t.Fatalf("snapshot read %d rows, barrier recorded %d", len(want), sn.Rows())
		}
		wg.Add(3)
		go func(r int) { // concurrent ingest + logged weights while readers run
			defer wg.Done()
			var wb Batch
			for k := 0; k < perRound; k++ {
				src := int64(100000 + r*perRound + k)
				wb.Add(e(src, src%89+1))
			}
			if _, err := s.Apply(&wb, nil); err != nil {
				errs <- err
				return
			}
			if err := s.UpdateIncomingFwd(int64(r%97+1), 0.5); err != nil {
				errs <- err
			}
		}(r)
		for reader := 0; reader < 2; reader++ {
			go func() {
				defer wg.Done()
				var got []Edge
				err := sn.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
					got = append(got, EdgeOf(tp))
					return false, nil
				})
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(got, want) {
					errs <- fmt.Errorf("snapshot reader saw %d rows, differing from the %d first read", len(got), len(want))
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSnapshotKeepsSupersededWeight: a destination logged before the cut
// and again after it reads, through the snapshot, the weight logged before.
func TestSnapshotKeepsSupersededWeight(t *testing.T) {
	s := newStore(t, 2)
	var b Batch
	b.Add(e(1, 9))
	b.Add(e(2, 9))
	if _, err := s.Apply(&b, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateIncomingFwd(9, 0.25); err != nil {
		t.Fatal(err)
	}
	sn := snapshotAll(t, s)
	if err := s.UpdateIncomingFwd(9, 0.75); err != nil {
		t.Fatal(err)
	}
	for _, edge := range scanEdges(t, sn) {
		if edge.WgtFwd != 0.25 {
			t.Errorf("snapshot edge %d->9 wgt_fwd = %v, want 0.25, logged before the cut", edge.Src, edge.WgtFwd)
		}
	}
	for _, edge := range scanEdges(t, s) {
		if edge.WgtFwd != 0.75 {
			t.Errorf("live edge %d->9 wgt_fwd = %v, want the newest 0.75", edge.Src, edge.WgtFwd)
		}
	}
}
