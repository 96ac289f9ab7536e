package relstore

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// fuzzManifestDisk builds the disk every FuzzManifestPayload input starts
// from, the same each time: a durable MemDisk whose newest checkpoint holds
// two tables (one indexed, spanning several heap pages), a free list left
// by a dropped table, and a rollback journal. It returns the disk with that
// checkpoint's manifest payload.
func fuzzManifestDisk(tb testing.TB) (*MemDisk, []byte) {
	tb.Helper()
	d := NewMemDisk()
	db, err := OpenDurable(d, Options{Frames: 64})
	if err != nil {
		tb.Fatal(err)
	}
	fill := func(name string, n int) *Table {
		t, err := db.CreateTable(name, testSchema())
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := t.AddIndex("oid", oidKey); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := t.Insert(Tuple{I64(int64(i)), Str(fmt.Sprintf("row-%d", i)), F64(float64(i) / 3)}); err != nil {
				tb.Fatal(err)
			}
		}
		return t
	}
	fill("T", 300)
	fill("V", 200)
	u, err := db.CreateTable("U", NewSchema(Column{Name: "n", Kind: KInt32}))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := u.Insert(Tuple{I32(int32(i))}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	// The second checkpoint overwrites live pages (journaled) and frees V's.
	if err := db.DropTable("V"); err != nil {
		tb.Fatal(err)
	}
	if err := u.Update(RID{Page: u.heap.first}, Tuple{I32(-1)}); err != nil {
		tb.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	_, slot, err := readNewestManifest(d)
	if err != nil {
		tb.Fatal(err)
	}
	_, payload, err := readFramed(d, rootFor(slot), manifestMagic)
	if err != nil {
		tb.Fatal(err)
	}
	return d, payload
}

// FuzzManifestPayload reopens a durable disk whose manifest carries an
// arbitrary payload, correctly framed — magic, version and CRC all pass, and
// the header's generation is the one the payload names — so only what the
// payload claims can be wrong. OpenDurable must return a DB or an error;
// a DB it returns must take a checkpoint and scan every table to a result
// or an error. Nothing may panic, loop, or allocate past the disk's size.
func FuzzManifestPayload(f *testing.F) {
	d, real := fuzzManifestDisk(f)
	f.Add(real)
	f.Add([]byte(`{"gen":9,"num_pages":3}`))
	f.Add([]byte(`{"gen":9,"num_pages":1000000000000}`))
	f.Add([]byte(`{"gen":9,"num_pages":40,"free":[7,7]}`))
	// The real manifest with one claim pointed at the wrong page: random
	// mutation of the JSON rarely lands on a page number that exists.
	var m manifest
	if err := json.Unmarshal(real, &m); err != nil {
		f.Fatal(err)
	}
	heap, root := m.Tables[0].HeapFirst, m.Tables[0].Indexes[0].Root
	page := make([]byte, PageSize)
	if err := d.ReadPage(heap, page); err != nil {
		f.Fatal(err)
	}
	mid := heapNext(page) // inside T's heap chain, neither end of it
	if mid == m.Tables[0].HeapLast {
		f.Fatal("harness table T spans fewer than three heap pages")
	}
	for _, damage := range []func(m *manifest){
		func(m *manifest) { // the next manifest, long enough to need its chain, written over the heap
			m.Chains[1] = []PageID{mid}
			m.Tables[1].Name = strings.Repeat("U", 2*PageSize)
		},
		func(m *manifest) { m.Tables[0].HeapFirst = root },                        // a B+tree node as a heap page
		func(m *manifest) { m.Tables[0].Indexes[0].Root = heap },                  // a heap page as a B+tree node
		func(m *manifest) { m.Tables[0].Indexes[0].Height = 1 << 30 },             // a tree deeper than the disk
		func(m *manifest) { m.Chains[1] = []PageID{heap + 1} },                    // the next manifest's chain over a heap page
		func(m *manifest) { m.Chains[1] = []PageID{heap + 1, heap + 1} },          // ... listed twice
		func(m *manifest) { m.Free = append(m.Free, heap+1) },                     // a live heap page on the free list
		func(m *manifest) { m.Tables[0].Cols[1].Name = m.Tables[0].Cols[0].Name }, // one column name twice
		func(m *manifest) { m.Tables[0].Rows = -1 },
		func(m *manifest) { m.Tables = append(m.Tables, m.Tables[0]) }, // one table twice
	} {
		c := m
		c.Tables = append([]tableManifest(nil), m.Tables...)
		c.Tables[0].Cols = append([]columnState(nil), m.Tables[0].Cols...)
		c.Tables[0].Indexes = append([]indexManifest(nil), m.Tables[0].Indexes...)
		c.Free = append([]PageID(nil), m.Free...)
		damage(&c)
		b, err := json.Marshal(&c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		d, _ := fuzzManifestDisk(t)
		var hdr struct {
			Gen uint64 `json:"gen"`
		}
		_ = json.Unmarshal(payload, &hdr)
		// The payload goes into root A, on a chain of fresh pages, and root B
		// is blanked: the fuzzed manifest is the only one recovery can pick.
		var chain []PageID
		for len(chain) < chainPagesFor(len(payload)) {
			pid, err := d.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			chain = append(chain, pid)
		}
		if err := writeFramed(d, manifestRootA, chain, manifestMagic, hdr.Gen, payload); err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(manifestRootB, make([]byte, PageSize)); err != nil {
			t.Fatal(err)
		}

		db, err := OpenDurable(d, Options{Frames: 32})
		if err != nil {
			return
		}
		_ = db.Checkpoint()
		// No heap holds more records than its pages have slots.
		limit := d.NumPages() * (PageSize / heapSlotLen)
		for name, tb := range db.tables {
			var rows int64
			_ = tb.Scan(func(RID, Tuple) (bool, error) {
				if rows++; rows > limit {
					t.Fatalf("scan of %s passed %d rows: it is going round in circles", name, limit)
				}
				return false, nil
			})
		}
		if n := pinnedFrames(db.pool); n != 0 {
			t.Fatalf("%d frames left pinned", n)
		}
	})
}
