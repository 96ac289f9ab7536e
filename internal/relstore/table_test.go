package relstore

import (
	"slices"
	"strings"
	"testing"
)

var crawlSchema = NewSchema(
	Column{"oid", KInt64},
	Column{"url", KString},
	Column{"relevance", KFloat64},
	Column{"numtries", KInt32},
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	return Open(Options{Frames: 128})
}

func TestTableInsertGetScan(t *testing.T) {
	db := newTestDB(t)
	tb, err := db.CreateTable("CRAWL", crawlSchema)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tb.Insert(Tuple{I64(1), Str("http://a/"), F64(0.5), I32(0)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tb.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].S != "http://a/" || got[2].Float() != 0.5 {
		t.Fatalf("got %v", got)
	}
	n := 0
	tb.Scan(func(RID, Tuple) (bool, error) { n++; return false, nil })
	if n != 1 || tb.Rows() != 1 {
		t.Fatalf("n=%d rows=%d", n, tb.Rows())
	}
	if _, err := db.CreateTable("CRAWL", crawlSchema); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

// TestTableScanCols: the in-place column scan sees every row, in Scan's
// order, with the values Scan decodes — across a variable-width column —
// and refuses a variable-width column.
func TestTableScanCols(t *testing.T) {
	tb, err := newTestDB(t).CreateTable("CRAWL", crawlSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		url := "http://a/" + string(rune('a'+i%26))
		if _, err := tb.Insert(Tuple{I64(i), Str(url), F64(float64(i) / 7), I32(int32(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	var want [][3]Value
	tb.Scan(func(_ RID, r Tuple) (bool, error) {
		want = append(want, [3]Value{r[3], r[0], r[2]})
		return false, nil
	})
	i := 0
	err = tb.ScanCols([]int{3, 0, 2}, func(_ RID, v []Value) (bool, error) {
		if got := [3]Value{v[0], v[1], v[2]}; got != want[i] {
			t.Fatalf("row %d: %v, Scan %v", i, got, want[i])
		}
		i++
		return false, nil
	})
	if err != nil || i != len(want) {
		t.Fatalf("%d of %d rows, err %v", i, len(want), err)
	}
	if err := tb.ScanCols([]int{1}, func(RID, []Value) (bool, error) { return false, nil }); err == nil {
		t.Fatal("variable-width column scanned")
	}
}

// TestTableScanShared: the shared-tuple scan sees every row, in Scan's
// order, with the values Scan decodes, strings included, and hands every
// row the same tuple.
func TestTableScanShared(t *testing.T) {
	tb, err := newTestDB(t).CreateTable("CRAWL", crawlSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		url := "http://a/" + strings.Repeat("x", int(i%40))
		if _, err := tb.Insert(Tuple{I64(i), Str(url), F64(float64(i) / 7), I32(int32(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	var want []Tuple
	tb.Scan(func(_ RID, r Tuple) (bool, error) {
		want = append(want, r)
		return false, nil
	})
	var got []Tuple
	var first *Value
	err = tb.ScanShared(func(_ RID, r Tuple) (bool, error) {
		if first == nil {
			first = &r[0]
		} else if &r[0] != first {
			t.Fatalf("row %d got a tuple of its own", len(got))
		}
		got = append(got, r.Clone())
		return false, nil
	})
	if err != nil || !slices.EqualFunc(got, want, func(a, b Tuple) bool { return slices.Equal(a, b) }) {
		t.Fatalf("ScanShared read %d rows unlike Scan's %d, err %v", len(got), len(want), err)
	}
}

func TestTableIndexMaintenance(t *testing.T) {
	db := newTestDB(t)
	tb, _ := db.CreateTable("CRAWL", crawlSchema)
	byOID := func(tp Tuple) []byte { return EncodeKey(tp[0]) }
	// Frontier-style composite order: numtries asc, relevance desc, oid.
	frontier := func(tp Tuple) []byte {
		return EncodeKey(tp[3], F64(-tp[2].Float()), tp[0])
	}
	for i := int64(0); i < 100; i++ {
		_, err := tb.Insert(Tuple{I64(i), Str("u"), F64(float64(i) / 100), I32(0)})
		if err != nil {
			t.Fatal(err)
		}
	}
	ixOID, err := tb.AddIndex("oid", byOID)
	if err != nil {
		t.Fatal(err)
	}
	ixF, err := tb.AddIndex("frontier", frontier)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddIndex("oid", byOID); err == nil {
		t.Fatal("duplicate index accepted")
	}

	// Highest relevance first.
	_, rid, ok, err := ixF.First()
	if err != nil || !ok {
		t.Fatal(err)
	}
	row, _ := tb.Get(rid)
	if row[0].Int() != 99 {
		t.Fatalf("frontier head = %v", row)
	}

	// Update moves the row in the frontier index.
	rid2, ok, err := ixOID.Lookup(EncodeKey(I64(50)))
	if err != nil || !ok {
		t.Fatal(err)
	}
	r50, _ := tb.Get(rid2)
	r50[2] = F64(2.0) // now the most relevant
	if err := tb.Update(rid2, r50); err != nil {
		t.Fatal(err)
	}
	_, rid, _, _ = ixF.First()
	row, _ = tb.Get(rid)
	if row[0].Int() != 50 {
		t.Fatalf("after update frontier head = %v", row)
	}

	// The update re-keyed the frontier index: no entry under the old key
	// is left beside the new one.
	if ixF.Tree.Len() != 100 {
		t.Fatalf("frontier len = %d", ixF.Tree.Len())
	}
}

func TestTableUpdateFixedWidthInPlace(t *testing.T) {
	db := newTestDB(t)
	tb, _ := db.CreateTable("T", crawlSchema)
	rid, _ := tb.Insert(Tuple{I64(1), Str("http://x/"), F64(0.1), I32(0)})
	row, _ := tb.Get(rid)
	row[2] = F64(0.99)
	row[3] = I32(7)
	if err := tb.Update(rid, row); err != nil {
		t.Fatal(err)
	}
	got, _ := tb.Get(rid)
	if got[2].Float() != 0.99 || got[3].Int() != 7 {
		t.Fatalf("got %v", got)
	}
}

func TestTableTruncateResetsIndexes(t *testing.T) {
	db := newTestDB(t)
	tb, _ := db.CreateTable("HUBS", NewSchema(Column{"oid", KInt64}, Column{"score", KFloat64}))
	ix, _ := tb.AddIndex("oid", func(tp Tuple) []byte { return EncodeKey(tp[0]) })
	for i := int64(0); i < 50; i++ {
		tb.Insert(Tuple{I64(i), F64(1)})
	}
	if err := tb.Truncate(); err != nil {
		t.Fatal(err)
	}
	ix = tb.Index("oid")
	if ix.Tree.Len() != 0 || tb.Rows() != 0 {
		t.Fatal("truncate left data behind")
	}
	if _, err := tb.Insert(Tuple{I64(7), F64(2)}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ix.Lookup(EncodeKey(I64(7))); !ok {
		t.Fatal("index dead after truncate")
	}
}

func TestIndexScanPrefix(t *testing.T) {
	db := newTestDB(t)
	link := NewSchema(Column{"src", KInt64}, Column{"dst", KInt64})
	tb, _ := db.CreateTable("LINK", link)
	ix, _ := tb.AddIndex("bysrc", func(tp Tuple) []byte { return EncodeKey(tp[0], tp[1]) })
	for src := int64(0); src < 10; src++ {
		for dst := int64(0); dst < 5; dst++ {
			tb.Insert(Tuple{I64(src), I64(dst * 100)})
		}
	}
	var dsts []int64
	err := ix.ScanPrefix(EncodeKey(I64(7)), func(_ []byte, rid RID) (bool, error) {
		row, err := tb.Get(rid)
		if err != nil {
			return true, err
		}
		dsts = append(dsts, row[1].Int())
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dsts) != 5 || dsts[0] != 0 || dsts[4] != 400 {
		t.Fatalf("dsts = %v", dsts)
	}
}

func TestTableIter(t *testing.T) {
	db := newTestDB(t)
	tb, _ := db.CreateTable("T", NewSchema(Column{"a", KInt64}))
	for i := int64(0); i < 10; i++ {
		tb.Insert(Tuple{I64(i)})
	}
	it, err := tb.Iter()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(it)
	if err != nil || len(rows) != 10 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	db.DropTable("T")
	if db.Table("T") != nil {
		t.Fatal("table survived drop")
	}
}
