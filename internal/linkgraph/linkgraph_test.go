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

func e(src, dst int64) Edge {
	return Edge{
		Src: src, SidSrc: int32(src % 7),
		Dst: dst, SidDst: int32(dst % 7),
		WgtFwd: float64(src%10) / 10, WgtRev: float64(dst%10) / 10,
	}
}

// outEdges reads src's out-edges through OutEdgesLocked under every stripe
// lock, as Edges with no weights.
func outEdges(t testing.TB, s *Store, src int64) []Edge {
	t.Helper()
	var out []Edge
	s.LockAll()
	err := s.OutEdgesLocked(src, func(dst int64, sidSrc, sidDst int32) (bool, error) {
		out = append(out, Edge{Src: src, SidSrc: sidSrc, Dst: dst, SidDst: sidDst})
		return false, nil
	})
	s.UnlockAll()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// applyPages applies edges a page at a time, as the crawler's ingest does:
// each run of consecutive edges out of one source is one batch. It returns
// the inserted flags aligned with edges.
func applyPages(t testing.TB, s *Store, edges []Edge, weight WeightFunc) []bool {
	t.Helper()
	var out []bool
	for lo, hi := 0, 0; lo < len(edges); lo = hi {
		var b Batch
		for hi = lo; hi < len(edges) && edges[hi].Src == edges[lo].Src; hi++ {
			b.Add(edges[hi])
		}
		inserted, err := s.Apply(&b, weight)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, inserted...)
	}
	return out
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
	if got := outEdges(t, s, 5); len(got) != 2 || got[0].Dst != 6 || got[1].Dst != 7 {
		t.Fatalf("out-edges of 5 = %v, want 5->6 once and 5->7", got)
	}
	if got := outEdges(t, s, 6); len(got) != 0 {
		t.Fatalf("out-edges of 6 = %v; reverse edge must not exist", got)
	}
}

// TestApplyRefusesTwoSources: a batch is one page's out-links. One whose
// edges leave two sources is refused, whether the sources share a stripe or
// not, and leaves every stripe's heap and directory as they were.
func TestApplyRefusesTwoSources(t *testing.T) {
	s := newStore(t, 2)
	applyPages(t, s, []Edge{e(1, 2), e(1, 3), e(2, 3), e(3, 4)}, nil)
	edges, rows := scanEdges(t, s), make([]int64, len(s.stripes))
	dirs := make([]edgeDirectory, len(s.stripes))
	for i, st := range s.stripes {
		rows[i] = st.tab.Rows()
		dirs[i] = edgeDirectory{head: maps.Clone(st.dir.head), rows: slices.Clone(st.dir.rows)}
	}
	for name, mixed := range map[string][]Edge{
		"two stripes": {e(1, 5), e(2, 5)},
		"one stripe":  {e(1, 6), e(3, 6)},
		"late source": {e(1, 7), e(1, 8), e(3, 7)},
	} {
		var b Batch
		for _, edge := range mixed {
			b.Add(edge)
		}
		if _, err := s.Apply(&b, nil); err == nil {
			t.Errorf("%s: Apply of edges out of two sources succeeded", name)
		}
		for i, st := range s.stripes {
			if n := st.tab.Rows(); n != rows[i] {
				t.Errorf("%s: stripe %d holds %d rows, want %d", name, i, n, rows[i])
			}
			if !maps.Equal(st.dir.head, dirs[i].head) || !slices.Equal(st.dir.rows, dirs[i].rows) {
				t.Errorf("%s: stripe %d's directory changed", name, i)
			}
		}
		if got := scanEdges(t, s); !slices.Equal(got, edges) {
			t.Errorf("%s: the store reads %v, want %v", name, got, edges)
		}
	}
	if err := s.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyWeightCallback(t *testing.T) {
	s := newStore(t, 2)
	calls := 0
	applyPages(t, s, []Edge{e(1, 2), e(1, 2), e(2, 3)}, func(edge Edge) (float64, error) { // the dup must not call it
		calls++
		return 0.875, nil
	})
	if calls != 2 {
		t.Fatalf("weight callback fired %d times, want 2 (once per inserted edge)", calls)
	}
	for _, edge := range scanEdges(t, s) {
		if edge.WgtFwd != 0.875 {
			t.Errorf("wgt_fwd = %v, want the callback's 0.875", edge.WgtFwd)
		}
	}
}

func TestOutEdgesOrderAndIsolation(t *testing.T) {
	s := newStore(t, 3)
	applyPages(t, s, []Edge{e(4, 30), e(4, 10), e(4, 20), e(5, 99)}, nil)
	got := outEdges(t, s, 4)
	want := []Edge{e(4, 10), e(4, 20), e(4, 30)}
	for i := range want {
		want[i].WgtFwd, want[i].WgtRev = 0, 0
	}
	if !slices.Equal(got, want) {
		t.Fatalf("out-edges of 4 = %v, want %v (ascending dst, with their server ids)", got, want)
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
	for _, edge := range edges {
		if _, err := plain.Insert(edge.tuple(make(relstore.Tuple, 6))); err != nil {
			t.Fatal(err)
		}
	}
	applyPages(t, s, edges, nil)
	got := scanEdges(t, s)
	var want []Edge
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

// TestCheckDirectoryCatchesDrift: the directory checker passes on a store
// built by Apply, and fails once the out-edge directory is made to disagree
// with the heap in each way it can.
func TestCheckDirectoryCatchesDrift(t *testing.T) {
	s := newStore(t, 2)
	var edges []Edge
	for src := int64(0); src < 8; src += 2 { // stripe 0
		edges = append(edges, e(src, 3), e(src, 4))
	}
	applyPages(t, s, edges, nil)
	if err := s.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	st := s.stripes[0]
	clone := func(d edgeDirectory) edgeDirectory {
		return edgeDirectory{head: maps.Clone(d.head), rows: slices.Clone(d.rows)}
	}
	good := clone(st.dir)
	for name, drift := range map[string]func(){
		"missing chain": func() { delete(st.dir.head, 4) },
		"swapped rows": func() {
			a, b := &st.dir.rows[st.dir.head[0]], &st.dir.rows[st.dir.head[2]]
			a.rid, b.rid = b.rid, a.rid
		},
		"extra entry":                      func() { st.dir.add(0, st.dir.rows[0].rid) },
		"looped chain":                     func() { st.dir.rows[st.dir.head[0]].next = st.dir.head[0] },
		"chain into another source's rows": func() { st.dir.rows[st.dir.head[0]].next = st.dir.head[2] },
		"chain cut short":                  func() { st.dir.rows[st.dir.head[6]].next = -1 },
	} {
		drift()
		if err := s.CheckDirectory(); err == nil {
			t.Errorf("%s: CheckDirectory passed", name)
		}
		st.dir = clone(good)
	}
}
