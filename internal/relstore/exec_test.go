package relstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

var twoColSchema = NewSchema(Column{"k", KInt64}, Column{"v", KFloat64})

func randRows(rng *rand.Rand, n, keySpace int) []Tuple {
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{I64(int64(rng.Intn(keySpace))), F64(rng.Float64())}
	}
	return rows
}

func TestSortInMemory(t *testing.T) {
	bp := newTestPool(64)
	rng := rand.New(rand.NewSource(3))
	rows := randRows(rng, 500, 100)
	it, err := SortByCols(bp, twoColSchema, NewSliceIter(rows), 0, "k")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1][0].Int() > got[i][0].Int() {
			t.Fatal("not sorted")
		}
	}
	if r, w := bp.Disk().Stats().Snapshot(); r != 0 || w != 0 {
		t.Fatalf("in-memory sort did I/O: %d reads %d writes", r, w)
	}
}

func TestSortSpillsAndMerges(t *testing.T) {
	bp := newTestPool(64)
	rng := rand.New(rand.NewSource(4))
	rows := randRows(rng, 20000, 1000000)
	// Tiny memory budget forces many runs.
	it, err := SortByCols(bp, twoColSchema, NewSliceIter(rows), 8*PageSize, "k")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("len = %d want %d", len(got), len(rows))
	}
	want := make([]int64, len(rows))
	for i, r := range rows {
		want[i] = r[0].Int()
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range got {
		if got[i][0].Int() != want[i] {
			t.Fatalf("mismatch at %d: %d != %d", i, got[i][0].Int(), want[i])
		}
	}
	if _, w := bp.Disk().Stats().Snapshot(); w == 0 {
		t.Fatal("spilling sort did no writes")
	}
}

func TestSortDescendingViaKey(t *testing.T) {
	bp := newTestPool(16)
	rows := []Tuple{{I64(1), F64(0.5)}, {I64(3), F64(0.1)}, {I64(2), F64(0.9)}}
	// Descending relevance order, as the crawl frontier needs: negate.
	it, err := SortTuples(bp, twoColSchema, NewSliceIter(rows), func(t Tuple) []byte {
		return EncodeKey(F64(-t[1].Float()))
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := Collect(it)
	if got[0][1].Float() != 0.9 || got[2][1].Float() != 0.1 {
		t.Fatalf("descending sort broken: %v", got)
	}
}

// refJoin is a nested-loop reference implementation.
func refJoin(left, right []Tuple, lcol, rcol int, outer bool, rw int) []Tuple {
	var out []Tuple
	for _, l := range left {
		matched := false
		for _, r := range right {
			if l[lcol].Int() == r[rcol].Int() {
				out = append(out, concat(l, r))
				matched = true
			}
		}
		if outer && !matched {
			row := l.Clone()
			for i := 0; i < rw; i++ {
				row = append(row, Null())
			}
			out = append(out, row)
		}
	}
	return out
}

func sortRows(rows []Tuple, col int) []Tuple {
	out := append([]Tuple(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i][col].Int() < out[j][col].Int() })
	return out
}

func canonical(rows []Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func TestMergeJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		left := randRows(rng, 50+rng.Intn(100), 20)
		right := randRows(rng, 50+rng.Intn(100), 20)
		for _, outer := range []bool{false, true} {
			want := canonical(refJoin(left, right, 0, 0, outer, 2))
			it := MergeJoin(
				NewSliceIter(sortRows(left, 0)), NewSliceIter(sortRows(right, 0)),
				KeyOfCols(0), KeyOfCols(0), outer, 2)
			rows, err := Collect(it)
			if err != nil {
				t.Fatal(err)
			}
			got := canonical(rows)
			if len(got) != len(want) {
				t.Fatalf("trial %d outer=%v: %d rows, want %d", trial, outer, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d outer=%v: row %d: %s != %s", trial, outer, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMergeJoinEmptyInputs(t *testing.T) {
	it := MergeJoin(NewSliceIter(nil), NewSliceIter(nil), KeyOfCols(0), KeyOfCols(0), false, 0)
	rows, err := Collect(it)
	if err != nil || len(rows) != 0 {
		t.Fatalf("%v %v", rows, err)
	}
	left := []Tuple{{I64(1), F64(0)}}
	it = MergeJoin(NewSliceIter(left), NewSliceIter(nil), KeyOfCols(0), KeyOfCols(0), true, 2)
	rows, err = Collect(it)
	if err != nil || len(rows) != 1 || !rows[0][2].IsNull() {
		t.Fatalf("outer vs empty right: %v %v", rows, err)
	}
}

func TestGroupByAggregates(t *testing.T) {
	rows := []Tuple{
		{I64(1), F64(2.0), I64(1)},
		{I64(1), F64(3.0), Null()},
		{I64(2), F64(10.0), Null()},
		{I64(3), F64(-1.0), I64(4)},
		{I64(3), F64(5.0), I64(-2)},
		{I64(3), F64(2.0), Null()},
	}
	it := GroupBy(NewSliceIter(rows), KeyOfCols(0), []int{0}, []int{1, 2})
	got, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("groups = %d", len(got))
	}
	// Group 1: float sum 5; the int column's one value, nulls skipped.
	g := got[0]
	if g[0].Int() != 1 || g[1].Float() != 5.0 || g[2].Kind != KInt64 || g[2].Int() != 1 {
		t.Fatalf("group 1 = %v", g)
	}
	// Group 2: an all-null column sums to Null.
	if g = got[1]; g[0].Int() != 2 || g[1].Float() != 10.0 || !g[2].IsNull() {
		t.Fatalf("group 2 = %v", g)
	}
	// Group 3: sums 6 and 2.
	g = got[2]
	if g[0].Int() != 3 || g[1].Float() != 6.0 || g[2].Int() != 2 {
		t.Fatalf("group 3 = %v", g)
	}
}

func TestGroupByIntSumAndEmpty(t *testing.T) {
	it := GroupBy(NewSliceIter(nil), KeyOfCols(0), []int{0}, []int{1})
	got, err := Collect(it)
	if err != nil || len(got) != 0 {
		t.Fatalf("%v %v", got, err)
	}
	rows := []Tuple{{I64(7), I64(4)}, {I64(7), I64(6)}}
	it = GroupBy(NewSliceIter(rows), KeyOfCols(0), []int{0}, []int{1})
	got, _ = Collect(it)
	if len(got) != 1 || got[0][1].Kind != KInt64 || got[0][1].Int() != 10 {
		t.Fatalf("int sum = %v", got)
	}
}

func TestFilterMapProject(t *testing.T) {
	rows := []Tuple{{I64(1), F64(0.1)}, {I64(2), F64(0.9)}, {I64(3), F64(0.5)}}
	got, err := Collect(MapIter(NewSliceIter(rows), func(t Tuple) Tuple { return Tuple{t[0]} }))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0][0].Int() != 1 || got[1][0].Int() != 2 || got[2][0].Int() != 3 || len(got[0]) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestGroupByRandomAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows := randRows(rng, 2000, 50)
	sorted := sortRows(rows, 0)
	it := GroupBy(NewSliceIter(sorted), KeyOfCols(0), []int{0}, []int{1})
	got, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	refSum := map[int64]float64{}
	for _, r := range rows {
		refSum[r[0].Int()] += r[1].Float()
	}
	if len(got) != len(refSum) {
		t.Fatalf("groups = %d want %d", len(got), len(refSum))
	}
	for _, g := range got {
		k := g[0].Int()
		if diff := g[1].Float() - refSum[k]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("sum mismatch for key %d", k)
		}
	}
}
