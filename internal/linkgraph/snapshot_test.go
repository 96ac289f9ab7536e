package linkgraph

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
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

// scanEdges returns every edge of a store or a snapshot in ScanEdges order.
func scanEdges(t testing.TB, rel interface {
	ScanEdges(func(Edge) (bool, error)) error
}) []Edge {
	t.Helper()
	var out []Edge
	err := rel.ScanEdges(func(edge Edge) (bool, error) {
		out = append(out, edge)
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
	var edges []Edge
	for src := int64(1); src <= 20; src++ {
		edges = append(edges, e(src, src+100), e(src, 9))
	}
	applyPages(t, s, edges, nil)
	want := scanEdges(t, s)

	sn1 := snapshotAll(t, s)
	sn2 := snapshotAll(t, s)
	if sn1.Rows() != int64(len(want)) {
		t.Fatalf("snapshot Rows = %d, want %d", sn1.Rows(), len(want))
	}

	// Change every stripe after the barrier: new edges and a logged weight.
	edges = edges[:0]
	for src := int64(21); src <= 40; src++ {
		edges = append(edges, e(src, src+100))
	}
	applyPages(t, s, edges, nil)
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
	var edges []Edge
	for src := int64(1); src <= 9; src++ {
		edges = append(edges, e(src, src*2))
	}
	applyPages(t, s, edges, nil)
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
		var edges []Edge
		for k := 0; k < perRound; k++ {
			src := int64(r*perRound + k + 1)
			edges = append(edges, e(src, src%97+1))
		}
		applyPages(t, s, edges, nil)
		sn := snapshotAll(t, s)
		want := scanEdges(t, sn)
		if int64(len(want)) != sn.Rows() {
			t.Fatalf("snapshot read %d rows, barrier recorded %d", len(want), sn.Rows())
		}
		wg.Add(3)
		go func(r int) { // concurrent ingest + logged weights while readers run
			defer wg.Done()
			for k := 0; k < perRound; k++ {
				src := int64(100000 + r*perRound + k)
				var wb Batch
				wb.Add(e(src, src%89+1))
				if _, err := s.Apply(&wb, nil); err != nil {
					errs <- err
					return
				}
			}
			if err := s.UpdateIncomingFwd(int64(r%97+1), 0.5); err != nil {
				errs <- err
			}
		}(r)
		for reader := 0; reader < 2; reader++ {
			go func() {
				defer wg.Done()
				var got []Edge
				err := sn.ScanEdges(func(edge Edge) (bool, error) {
					got = append(got, edge)
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
	applyPages(t, s, []Edge{e(1, 9), e(2, 9)}, nil)
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

// TestSnapshotTailStress reads LINK the way the distiller's kept
// arrangement does: four workers apply pages and log forward weights into
// four stripes while snapshots are cut one after another, and each
// snapshot's tail past the one before is read while the writers run. The
// tails so far, their stored weights resolved against the log tails so far,
// must be exactly each snapshot's full ScanEdges; a tail since a later
// snapshot, or one of another store, is refused.
func TestSnapshotTailStress(t *testing.T) {
	s := newStore(t, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var writing atomic.Int32
	for w := 0; w < 4; w++ {
		wg.Add(1)
		writing.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Add(-1)
			for page := int64(0); page < 400; page++ {
				select {
				case <-stop:
					return
				default:
				}
				src := page*4 + int64(w)
				var b Batch
				for k := int64(0); k < 1+src%9; k++ {
					b.Add(e(src%300, (src*7+k*13)%211))
				}
				if _, err := s.Apply(&b, nil); err != nil {
					errs <- err
					return
				}
				if err := s.UpdateIncomingFwd(src%211, float64(page%5)/4); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	byEdge := func(a, b Edge) int { return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst)) }
	var prev *Snapshot
	var tails []Edge
	var logged []fwdEntry
	for k := 0; k < 25; k++ {
		for s.Rows() < int64(k)*150 && writing.Load() > 0 {
			runtime.Gosched() // let the writers get ahead of the last cut
		}
		sn := snapshotAll(t, s)
		tail, err := sn.Since(prev)
		if err != nil {
			t.Fatal(err)
		}
		tails = append(tails, scanEdges(t, tail)...)
		logged = append(logged, tail.fwd...)
		w := resolve(logged)
		got := slices.Clone(tails)
		for i := range got {
			if fwd, ok := w[got[i].Dst]; ok {
				got[i].WgtFwd = fwd
			}
		}
		want := scanEdges(t, sn)
		slices.SortFunc(got, byEdge)
		slices.SortFunc(want, byEdge)
		if int64(len(want)) != sn.Rows() || !slices.Equal(got, want) {
			t.Fatalf("snapshot %d: %d rows, %d edges read whole and %d through tails, or they differ", k, sn.Rows(), len(want), len(got))
		}
		if prev != nil {
			if _, err := prev.Since(sn); err == nil && sn.Rows() > prev.Rows() {
				t.Fatalf("snapshot %d: a tail since a later snapshot was not refused", k)
			}
		}
		prev = sn
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := snapshotAll(t, newStore(t, 4)).Since(prev); err == nil {
		t.Fatal("a tail since another store's snapshot was not refused")
	}
}
