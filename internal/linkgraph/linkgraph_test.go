package linkgraph

import (
	"maps"
	"slices"
	"testing"

	"focus/internal/relstore"
)

func newStore(t testing.TB, stripes int) *Store {
	t.Helper()
	db := relstore.Open(relstore.Options{Frames: 512})
	s, err := New(db, stripes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tuple is the LINK row of an edge, for tests that fill a plain table.
func (e Edge) tuple() relstore.Tuple {
	return relstore.Tuple{
		relstore.I64(e.Src), relstore.I32(e.SidSrc),
		relstore.I64(e.Dst), relstore.I32(e.SidDst),
		relstore.F64(e.WgtFwd), relstore.F64(e.WgtRev),
	}
}

func e(src, dst int64) Edge {
	return Edge{
		Src: src, SidSrc: int32(src % 7),
		Dst: dst, SidDst: int32(dst % 7),
		WgtFwd: float64(src%10) / 10, WgtRev: float64(dst%10) / 10,
	}
}

func TestApplyDedupWithinBatch(t *testing.T) {
	s := newStore(t, 4)
	var b Batch
	b.Add(e(1, 2))
	b.Add(e(1, 3))
	b.Add(e(1, 2)) // duplicate of the first
	inserted, err := s.Apply(&b, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false}
	for i, w := range want {
		if inserted[i] != w {
			t.Errorf("inserted[%d] = %v, want %v", i, inserted[i], w)
		}
	}
	if got := s.Rows(); got != 2 {
		t.Fatalf("rows = %d, want 2", got)
	}
}

func TestApplyDedupAgainstStored(t *testing.T) {
	s := newStore(t, 3)
	var b1 Batch
	b1.Add(e(5, 6))
	if _, err := s.Apply(&b1, nil); err != nil {
		t.Fatal(err)
	}
	var b2 Batch
	b2.Add(e(5, 6)) // already stored
	b2.Add(e(5, 7))
	inserted, err := s.Apply(&b2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inserted[0] || !inserted[1] {
		t.Fatalf("inserted = %v, want [false true]", inserted)
	}
	if ok, err := s.Contains(5, 6); err != nil || !ok {
		t.Fatalf("Contains(5,6) = %v, %v", ok, err)
	}
	if ok, err := s.Contains(6, 5); err != nil || ok {
		t.Fatalf("Contains(6,5) = %v, %v; reverse edge must not exist", ok, err)
	}
}

func TestApplyWeightCallback(t *testing.T) {
	s := newStore(t, 2)
	var b Batch
	b.Add(e(1, 2))
	b.Add(e(1, 2)) // dup: callback must not fire for it
	b.Add(e(2, 3))
	calls := 0
	inserted, err := s.Apply(&b, func(edge Edge) (float64, error) {
		calls++
		return 0.875, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("weight callback fired %d times, want 2 (once per inserted edge)", calls)
	}
	_ = inserted
	err = s.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		if got := tp[ColWgtFwd].Float(); got != 0.875 {
			t.Errorf("wgt_fwd = %v, want the callback's 0.875", got)
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUpdateIncomingFwd(t *testing.T) {
	// Edges into dst=9 from sources on different stripes; all must be
	// rewritten, edges into other targets untouched.
	s := newStore(t, 4)
	var b Batch
	for src := int64(1); src <= 8; src++ {
		b.Add(e(src, 9))
		b.Add(e(src, 10))
	}
	if _, err := s.Apply(&b, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateIncomingFwd(9, 0.625); err != nil {
		t.Fatal(err)
	}
	err := s.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		edge := EdgeOf(tp)
		if edge.Dst == 9 && edge.WgtFwd != 0.625 {
			t.Errorf("edge %d->9 wgt_fwd = %v, want 0.625", edge.Src, edge.WgtFwd)
		}
		if edge.Dst == 10 && edge.WgtFwd == 0.625 {
			t.Errorf("edge %d->10 rewritten; only dst=9 should be", edge.Src)
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoutedSweepProbesOnlyDstStripes(t *testing.T) {
	// Edges into dst=9 come from srcs 1 and 2 (stripes 1 and 2 of 8); a
	// routed sweep must probe exactly those two stripes, and a sweep of a
	// never-linked dst must probe none.
	s := newStore(t, 8)
	var b Batch
	b.Add(e(1, 9))
	b.Add(e(2, 9))
	b.Add(e(3, 12))
	if _, err := s.Apply(&b, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateIncomingFwd(9, 0.75); err != nil {
		t.Fatal(err)
	}
	sweeps, probes := s.SweepStats()
	if sweeps != 1 || probes != 2 {
		t.Fatalf("SweepStats = (%d, %d), want (1, 2)", sweeps, probes)
	}
	if err := s.UpdateIncomingFwd(77, 0.5); err != nil { // no edges into 77
		t.Fatal(err)
	}
	if sweeps, probes = s.SweepStats(); sweeps != 2 || probes != 2 {
		t.Fatalf("SweepStats after no-edge sweep = (%d, %d), want (2, 2)", sweeps, probes)
	}
	err := s.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		edge := EdgeOf(tp)
		if edge.Dst == 9 && edge.WgtFwd != 0.75 {
			t.Errorf("edge %d->9 wgt_fwd = %v, want 0.75", edge.Src, edge.WgtFwd)
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoutedSweepMultiWordMasks(t *testing.T) {
	// 130 stripes needs a 3-word registry mask; srcs land on stripes 0, 65,
	// and 129 — one bit in each word.
	s := newStore(t, 130)
	var b Batch
	for _, src := range []int64{130, 65, 129} { // stripe = src % 130
		b.Add(e(src, 7))
	}
	if _, err := s.Apply(&b, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateIncomingFwd(7, 0.875); err != nil {
		t.Fatal(err)
	}
	if sweeps, probes := s.SweepStats(); sweeps != 1 || probes != 3 {
		t.Fatalf("SweepStats = (%d, %d), want (1, 3)", sweeps, probes)
	}
	rewritten := 0
	err := s.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		if edge := EdgeOf(tp); edge.Dst == 7 {
			if edge.WgtFwd != 0.875 {
				t.Errorf("edge %d->7 wgt_fwd = %v, want 0.875", edge.Src, edge.WgtFwd)
			}
			rewritten++
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rewritten != 3 {
		t.Fatalf("rewrote %d edges, want 3", rewritten)
	}
}

func TestScanBySrcOrderAndIsolation(t *testing.T) {
	s := newStore(t, 3)
	var b Batch
	b.Add(e(4, 30))
	b.Add(e(4, 10))
	b.Add(e(4, 20))
	b.Add(e(5, 99))
	if _, err := s.Apply(&b, nil); err != nil {
		t.Fatal(err)
	}
	var dsts []int64
	err := s.ScanBySrc(4, func(edge Edge) (bool, error) {
		dsts = append(dsts, edge.Dst)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dsts) != 3 || dsts[0] != 10 || dsts[1] != 20 || dsts[2] != 30 {
		t.Fatalf("ScanBySrc(4) = %v, want [10 20 30] (ascending dst)", dsts)
	}
}

func TestSingleStripeMatchesPlainTable(t *testing.T) {
	// With one stripe the store must behave exactly like the pre-stripe
	// single LINK table: same heap scan order (arrival order), same rows.
	s := newStore(t, 1)
	db := relstore.Open(relstore.Options{Frames: 512})
	plain, err := db.CreateTable("LINK", Schema())
	if err != nil {
		t.Fatal(err)
	}
	edges := []Edge{e(3, 1), e(1, 2), e(2, 1), e(1, 5), e(7, 2)}
	var b Batch
	for _, edge := range edges {
		b.Add(edge)
		if _, err := plain.Insert(edge.tuple()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Apply(&b, nil); err != nil {
		t.Fatal(err)
	}
	var got, want []Edge
	s.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		got = append(got, EdgeOf(tp))
		return false, nil
	})
	plain.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		want = append(want, EdgeOf(tp))
		return false, nil
	})
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %+v, plain table has %+v", i, got[i], want[i])
		}
	}
}

// TestUpdateIncomingFwdPoolFetches: a sweep into a destination with k
// in-edges in one stripe walks the in-edge directory, so it fetches no index
// page — exactly the heap pages holding those k rows, here one page each,
// since a page's worth of other edges lands between any two of them.
func TestUpdateIncomingFwdPoolFetches(t *testing.T) {
	const (
		k   = 6
		dst = 1 << 40
	)
	s := newStore(t, 2)
	filler := int64(0)
	for i := 0; i < k; i++ {
		var b Batch
		b.Add(e(int64(2*i), dst)) // even sources: stripe 0
		for j := 0; j < 150; j++ {
			b.Add(e(2*(100+filler%50), 1000+filler))
			filler++
		}
		if _, err := s.Apply(&b, nil); err != nil {
			t.Fatal(err)
		}
	}
	pages := map[relstore.PageID]bool{}
	err := s.stripes[0].tab.ScanCols([]int{ColDst}, func(rid relstore.RID, v []relstore.Value) (bool, error) {
		if v[0].Int() == dst {
			pages[rid.Page] = true
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != k {
		t.Fatalf("the %d edges into the target lie on %d heap pages, the test wants one each", k, len(pages))
	}
	pool := s.db.Pool()
	before := pool.Stats()
	if err := s.UpdateIncomingFwd(dst, 0.5); err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	if got := (after.Hits + after.Misses) - (before.Hits + before.Misses); got != int64(len(pages)) {
		t.Fatalf("the sweep fetched %d pages, its rows lie on %d", got, len(pages))
	}
	rewritten := 0
	err = s.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		if edge := EdgeOf(tp); edge.Dst == dst && edge.WgtFwd == 0.5 {
			rewritten++
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rewritten != k {
		t.Fatalf("the sweep rewrote %d of %d edges", rewritten, k)
	}
}

// TestCheckDirectoryCatchesDrift: the directory checker passes on a store
// built by Apply, and fails once the in-edge or the out-edge directory is made
// to disagree with the heap or the registry in each way it can.
func TestCheckDirectoryCatchesDrift(t *testing.T) {
	s := newStore(t, 2)
	var b Batch
	for src := int64(0); src < 8; src += 2 { // stripe 0
		b.Add(e(src, 3))
		b.Add(e(src, 4))
	}
	if _, err := s.Apply(&b, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	st := s.stripes[0]
	clone := func(d edgeDirectory) edgeDirectory {
		return edgeDirectory{in: maps.Clone(d.in), out: maps.Clone(d.out), rows: slices.Clone(d.rows)}
	}
	good, reg := clone(st.dir), s.reg
	for name, drift := range map[string]func(){
		"missing chain": func() { delete(st.dir.in, 4) },
		"swapped rows": func() {
			a, b := &st.dir.rows[st.dir.in[3]], &st.dir.rows[st.dir.in[4]]
			a.rid, b.rid = b.rid, a.rid
		},
		"extra entry":  func() { st.dir.add(0, 3, st.dir.rows[0].rid) },
		"looped chain": func() { st.dir.rows[st.dir.in[3]].nextIn = st.dir.in[3] },
		"unregistered": func() { s.reg = newDstRegistry(len(s.stripes)) },
		"out-edge chain into another source's rows": func() {
			st.dir.rows[st.dir.out[0]].nextOut = st.dir.out[2]
		},
		"out-edge chain cut short": func() { st.dir.rows[st.dir.out[6]].nextOut = -1 },
	} {
		drift()
		if err := s.CheckDirectory(); err == nil {
			t.Errorf("%s: CheckDirectory passed", name)
		}
		st.dir, s.reg = clone(good), reg
	}
}
