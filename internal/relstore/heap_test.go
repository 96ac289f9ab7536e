package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func newTestPool(frames int) *BufferPool {
	return NewBufferPool(NewMemDisk(), frames)
}

func TestHeapInsertGet(t *testing.T) {
	bp := newTestPool(16)
	h, err := NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if h.Rows() != 1 {
		t.Fatalf("rows = %d", h.Rows())
	}
}

func TestHeapPageOverflowChains(t *testing.T) {
	bp := newTestPool(16)
	h, err := NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 1000)
	var rids []RID
	for i := 0; i < 50; i++ { // ~13 pages
		rec[0] = byte(i)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pages := map[PageID]bool{}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("record %d corrupted", i)
		}
		pages[rid.Page] = true
	}
	if len(pages) < 10 {
		t.Fatalf("expected chaining over many pages, got %d", len(pages))
	}
}

func TestHeapUpdate(t *testing.T) {
	bp := newTestPool(16)
	h, _ := NewHeapFile(bp)
	rid, _ := h.Insert([]byte("abcdef"))
	if err := h.Update(rid, []byte("ABCDEF")); err != nil {
		t.Fatal(err)
	}
	got, _ := h.Get(rid)
	if string(got) != "ABCDEF" {
		t.Fatalf("got %q", got)
	}
	// Shrinking update is allowed.
	if err := h.Update(rid, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	got, _ = h.Get(rid)
	if string(got) != "xy" {
		t.Fatalf("got %q", got)
	}
	// Growing update is rejected.
	if err := h.Update(rid, []byte("0123456789")); err == nil {
		t.Fatal("growing update accepted")
	}
	if h.Rows() != 1 {
		t.Fatalf("rows = %d", h.Rows())
	}
}

// TestHeapRefusesTombstoneLengthSlot: no record is ever deleted, so a slot
// of length 0xFFFF (what a deleted slot once held, at its old offset or at
// 0) is damage. Get, ScanFrom and Scan each return an error for it through
// the slot bounds check; none skips it or panics.
func TestHeapRefusesTombstoneLengthSlot(t *testing.T) {
	for _, zeroOff := range []bool{false, true} {
		bp := newTestPool(16)
		h, err := NewHeapFile(bp)
		if err != nil {
			t.Fatal(err)
		}
		var rids []RID
		for i := 0; i < 3; i++ {
			rid, err := h.Insert([]byte{byte(i), 1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		f, err := bp.Fetch(rids[1].Page)
		if err != nil {
			t.Fatal(err)
		}
		off, _ := heapSlot(f.Data(), rids[1].Slot)
		if zeroOff {
			off = 0
		}
		heapSetSlot(f.Data(), rids[1].Slot, off, 0xFFFF)
		bp.Unpin(f, true)

		if _, err := h.Get(rids[1]); err == nil {
			t.Errorf("zero offset %v: Get of the damaged slot succeeded", zeroOff)
		}
		visit := func(RID, []byte) (bool, error) { return false, nil }
		for _, from := range rids[:2] {
			if err := h.ScanFrom(from, visit); err == nil {
				t.Errorf("zero offset %v: ScanFrom(%v) passed the damaged slot", zeroOff, from)
			}
		}
		if err := h.Scan(visit); err == nil {
			t.Errorf("zero offset %v: Scan passed the damaged slot", zeroOff)
		}
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	bp := newTestPool(16)
	h, _ := NewHeapFile(bp)
	for i := 0; i < 10; i++ {
		h.Insert([]byte{byte(i)})
	}
	n := 0
	h.Scan(func(_ RID, _ []byte) (bool, error) {
		n++
		return n == 3, nil
	})
	if n != 3 {
		t.Fatalf("visited %d", n)
	}
}

func TestHeapTruncate(t *testing.T) {
	bp := newTestPool(16)
	h, _ := NewHeapFile(bp)
	for i := 0; i < 100; i++ {
		h.Insert(make([]byte, 200))
	}
	if err := h.Truncate(); err != nil {
		t.Fatal(err)
	}
	if h.Rows() != 0 {
		t.Fatalf("rows = %d", h.Rows())
	}
	n := 0
	h.Scan(func(RID, []byte) (bool, error) { n++; return false, nil })
	if n != 0 {
		t.Fatalf("scan saw %d rows after truncate", n)
	}
	if _, err := h.Insert([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestHeapRejectsOversizeRecord(t *testing.T) {
	bp := newTestPool(16)
	h, _ := NewHeapFile(bp)
	if _, err := h.Insert(make([]byte, PageSize)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestHeapRandomizedAgainstReference(t *testing.T) {
	bp := newTestPool(32)
	h, _ := NewHeapFile(bp)
	rng := rand.New(rand.NewSource(7))
	ref := map[RID][]byte{}
	var live []RID
	for op := 0; op < 3000; op++ {
		switch {
		case len(live) == 0 || rng.Intn(3) != 0:
			rec := make([]byte, 1+rng.Intn(300))
			rng.Read(rec)
			rid, err := h.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			ref[rid] = append([]byte(nil), rec...)
			live = append(live, rid)
		default:
			i := rng.Intn(len(live))
			rid := live[i]
			old := ref[rid]
			rec := make([]byte, 1+rng.Intn(len(old)))
			rng.Read(rec)
			if err := h.Update(rid, rec); err != nil {
				t.Fatal(err)
			}
			ref[rid] = append([]byte(nil), rec...)
		}
	}
	if int(h.Rows()) != len(ref) {
		t.Fatalf("rows = %d, want %d", h.Rows(), len(ref))
	}
	seen := 0
	err := h.Scan(func(rid RID, rec []byte) (bool, error) {
		want, ok := ref[rid]
		if !ok {
			return true, fmt.Errorf("unexpected rid %v", rid)
		}
		if !bytes.Equal(rec, want) {
			return true, fmt.Errorf("rid %v content mismatch", rid)
		}
		seen++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(ref) {
		t.Fatalf("scan saw %d, want %d", seen, len(ref))
	}
}

func TestRIDRoundTrip(t *testing.T) {
	in := RID{Page: 12345, Slot: 678}
	out, err := DecodeRID(EncodeRID(in))
	if err != nil || out != in {
		t.Fatalf("round trip: %v %v", out, err)
	}
	if _, err := DecodeRID([]byte{1, 2}); err == nil {
		t.Fatal("short RID accepted")
	}
	if !(RID{}).IsZero() || (RID{Page: 1}).IsZero() {
		t.Fatal("IsZero misbehaviour")
	}
}

// TestHeapScanFromIsSuffix: a scan from any record's RID visits exactly the
// suffix of a full scan that starts at that record, across page boundaries
// (a page holds three of its records), and stops early
// when asked. A RID that names no record is an error, not a panic.
func TestHeapScanFromIsSuffix(t *testing.T) {
	bp := newTestPool(16)
	h, err := NewHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 1100)
	for i := 0; i < 20; i++ {
		rec[0] = byte(i)
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	type row struct {
		rid RID
		b   byte
	}
	scan := func(from *RID, stopAfter int) ([]row, error) {
		var out []row
		fn := func(rid RID, rec []byte) (bool, error) {
			out = append(out, row{rid, rec[0]})
			return len(out) == stopAfter, nil
		}
		if from == nil {
			return out, h.Scan(fn)
		}
		return out, h.ScanFrom(*from, fn)
	}
	full, err := scan(nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 20 || full[len(full)-1].rid.Page == h.first {
		t.Fatalf("full scan: %d records ending on page %d; the test wants 20 over several pages", len(full), full[len(full)-1].rid.Page)
	}
	for i, r := range full {
		got, err := scan(&r.rid, -1)
		if err != nil {
			t.Fatalf("scan from %v: %v", r.rid, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(full[i:]) {
			t.Fatalf("scan from %v = %v, want %v", r.rid, got, full[i:])
		}
		if got, err := scan(&r.rid, 2); err != nil || len(got) != min(2, len(full)-i) {
			t.Fatalf("scan from %v stopping after 2: %d records, %v", r.rid, len(got), err)
		}
	}
	last := full[len(full)-1].rid
	for _, rid := range []RID{
		{},                                       // the zero RID
		{Page: h.first, Slot: 3},                 // past the first page's records
		{Page: last.Page, Slot: last.Slot + 1},   // past the tail page's records
		{Page: PageID(bp.Disk().NumPages() + 5)}, // past the disk
	} {
		if _, err := scan(&rid, -1); err == nil {
			t.Errorf("scan from %v: no error", rid)
		}
	}
}
