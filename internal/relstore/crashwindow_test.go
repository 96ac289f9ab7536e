package relstore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// syncDisk is the device model of the durability contract (doc.go) as a
// test disk: a write is durable only once a later Sync returns. The wrapped
// MemDisk is what the running process reads back; durable holds each page's
// image as of the last Sync, pending the writes made since, in order.
// beforeSync, when set, runs at each Sync before the window closes: a crash
// there may keep any subset of pending, each write whole or torn.
type syncDisk struct {
	*MemDisk
	durable    map[PageID][]byte
	pending    []pageWrite
	beforeSync func()
}

type pageWrite struct {
	pid  PageID
	data []byte
}

func newSyncDisk() *syncDisk {
	return &syncDisk{MemDisk: NewMemDisk(), durable: map[PageID][]byte{}}
}

func (d *syncDisk) WritePage(pid PageID, buf []byte) error {
	if err := d.MemDisk.WritePage(pid, buf); err != nil {
		return err
	}
	d.pending = append(d.pending, pageWrite{pid, slices.Clone(buf)})
	return nil
}

func (d *syncDisk) Sync() error {
	if d.beforeSync != nil {
		d.beforeSync()
	}
	for _, w := range d.pending {
		d.durable[w.pid] = w.data
	}
	d.pending = nil
	return nil
}

// crashImage is the disk a crash leaves now: every page's durable image,
// overwritten by the pending writes, in the order made, with what keep
// says of each — the bytes that reached the device, or nil for none.
func (d *syncDisk) crashImage(keep func(i int) []byte) *MemDisk {
	img := &MemDisk{pages: make([][]byte, d.MemDisk.NumPages())}
	for pid, b := range d.durable {
		img.pages[pid-1] = slices.Clone(b)
	}
	for i, w := range d.pending {
		if b := keep(i); b != nil {
			img.pages[w.pid-1] = slices.Clone(b)
		}
	}
	return img
}

// torn is write w torn at the middle sector boundary: its first half (or,
// with back set, its second) over the page's durable image.
func (d *syncDisk) torn(w pageWrite, back bool) []byte {
	b := make([]byte, PageSize)
	copy(b, d.durable[w.pid])
	if back {
		copy(b[PageSize/2:], w.data[PageSize/2:])
	} else {
		copy(b, w.data[:PageSize/2])
	}
	return b
}

// crashScenario is one way a sync window can end in a crash: which of its
// writes persist (keep, by index) and which of those are torn.
type crashScenario struct {
	keep []bool
	torn map[int]bool // true: the back half persisted, false: the front
}

// crashScenarios enumerates the crashes of a window of n writes: every
// subset when n <= 12; otherwise every prefix, every single omission and 256
// subsets drawn from rng. Then, for each write, the window persisted whole
// but for that write torn, front half or back.
func crashScenarios(n int, rng *rand.Rand) []crashScenario {
	var out []crashScenario
	set := func(f func(i int) bool) {
		sc := crashScenario{keep: make([]bool, n)}
		for i := range sc.keep {
			sc.keep[i] = f(i)
		}
		out = append(out, sc)
	}
	if n <= 12 {
		for m := uint(0); m < 1<<n; m++ {
			set(func(i int) bool { return m>>i&1 == 1 })
		}
	} else {
		for k := 0; k <= n; k++ {
			set(func(i int) bool { return i < k })
		}
		for j := 0; j < n; j++ {
			set(func(i int) bool { return i != j })
		}
		for r := 0; r < 256; r++ {
			set(func(int) bool { return rng.Intn(2) == 1 })
		}
	}
	for j := 0; j < n; j++ {
		for _, back := range []bool{false, true} {
			set(func(int) bool { return true })
			out[len(out)-1].torn = map[int]bool{j: back}
		}
	}
	return out
}

// tableRows reads table T's rows, sorted, as strings.
func tableRows(db *DB) ([]string, error) {
	tb := db.Table("T")
	if tb == nil {
		return nil, fmt.Errorf("no table T")
	}
	var rows []string
	err := tb.Scan(func(_ RID, tp Tuple) (bool, error) {
		rows = append(rows, fmt.Sprint(tp[0].Int(), tp[1].S, tp[2].Float()))
		return false, nil
	})
	slices.Sort(rows)
	return rows, err
}

// TestCheckpointSurvivesEverySyncWindowCrash crashes a durable checkpoint
// inside each of its sync windows under the device model of doc.go — any
// subset of the window's writes persists, a write may tear at a sector
// boundary — and reopens every crash image. The table is small (a 16-frame
// pool, so steals write pages back before the checkpoint), and between its
// checkpoints rows are updated in place (so the checkpoint journals) and
// fresh rows inserted. Each recovery must read exactly the rows of the
// previous generation or of the new one. A checkpoint that writes its
// manifest root in the window of the flush it commits fails here: the root
// can persist without a page it references.
func TestCheckpointSurvivesEverySyncWindowCrash(t *testing.T) {
	disk := newSyncDisk()
	opts := Options{Frames: 16}
	db, err := OpenDurable(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb, 0, 600)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	prev, err := tableRows(db)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	err = tb.Scan(func(rid RID, tp Tuple) (bool, error) {
		if tp[0].Int()%3 == 0 {
			rids = append(rids, rid)
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids {
		if err := tb.SetCol(rid, 2, F64(-1)); err != nil {
			t.Fatal(err)
		}
	}
	fillTable(t, tb, 600, 2400)
	next, err := tableRows(db)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(37))
	var windows, crashes int
	var sizes []int
	disk.beforeSync = func() {
		windows++
		sizes = append(sizes, len(disk.pending))
		for _, sc := range crashScenarios(len(disk.pending), rng) {
			crashes++
			img := disk.crashImage(func(i int) []byte {
				w := disk.pending[i]
				if back, ok := sc.torn[i]; ok {
					return disk.torn(w, back)
				}
				if sc.keep[i] {
					return w.data
				}
				return nil
			})
			got, err := func() ([]string, error) {
				db2, err := OpenDurable(img, opts)
				if err != nil {
					return nil, err
				}
				return tableRows(db2)
			}()
			if err == nil && (slices.Equal(got, prev) || slices.Equal(got, next)) {
				continue
			}
			var dropped, torn []PageID
			for i, w := range disk.pending {
				if _, ok := sc.torn[i]; ok {
					torn = append(torn, w.pid)
				} else if !sc.keep[i] {
					dropped = append(dropped, w.pid)
				}
			}
			t.Errorf("crash in sync window %d of the checkpoint (%d writes), pages %v dropped, %v torn: "+
				"recovery reads %d rows matching neither generation (%d or %d rows), error %v",
				windows, len(disk.pending), dropped, torn, len(got), len(prev), len(next), err)
			return // one scenario named per window
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	disk.beforeSync = nil
	if windows != 3 {
		t.Fatalf("the journaling checkpoint closed %d sync windows, want three", windows)
	}
	t.Logf("sync windows of %v writes, %d crash images recovered", sizes, crashes)

	db2, err := OpenDurable(disk.crashImage(func(int) []byte { return nil }), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tableRows(db2); err != nil || !slices.Equal(got, next) {
		t.Fatalf("after the checkpoint recovery reads %d rows (%v), want the %d it committed", len(got), err, len(next))
	}
}

// TestOpenRefusesJournalWithoutImageCRCs: a journal at the recovered
// generation in the layout written before its images carried CRCs is
// refused by name, not parsed; one at an older generation is ignored, as
// every journal a later checkpoint committed over is.
func TestOpenRefusesJournalWithoutImageCRCs(t *testing.T) {
	mem := NewMemDisk()
	db, err := OpenDurable(mem, Options{Frames: 16})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, tb, 0, 100)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen := db.durable.gen
	old := encodeJournal(nil) // no pairs: the frame alone carries the layout
	if err := writeFramed(mem, journalRoot, nil, oldJournalMagic, gen-1, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(mem, Options{Frames: 16}); err != nil {
		t.Fatalf("an older generation's journal must be ignored: %v", err)
	}
	if err := writeFramed(mem, journalRoot, nil, oldJournalMagic, gen, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(mem, Options{Frames: 16}); err == nil || !strings.Contains(err.Error(), "without image CRCs") {
		t.Fatalf("OpenDurable over an old-layout journal at generation %d: %v", gen, err)
	}
}
