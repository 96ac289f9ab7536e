package relstore

import (
	"encoding/binary"
	"fmt"
)

// Heap page layout:
//
//	[0:4)  next page id (u32, 0 = end of chain)
//	[4:6)  slot count (u16)
//	[6:8)  freeEnd (u16): records occupy [freeEnd, PageSize)
//	[8+4i : 8+4i+4) slot i: record offset (u16), record length (u16)
//
// Records are never deleted and never span pages.
const (
	heapHdr     = 8
	heapSlotLen = 4
	// MaxRecordLen is the largest record a heap page (or B+tree cell) holds.
	MaxRecordLen = PageSize - heapHdr - heapSlotLen
)

// RID addresses a record: page plus slot.
type RID struct {
	Page PageID
	Slot uint16
}

// IsZero reports whether the RID is the zero value (no record).
func (r RID) IsZero() bool { return r.Page == InvalidPage && r.Slot == 0 }

// EncodeRID packs the RID into 6 bytes (used as index payload).
func EncodeRID(r RID) []byte {
	var b [6]byte
	putRID(b[:], r)
	return b[:]
}

// putRID is EncodeRID into the caller's 6 bytes.
func putRID(b []byte, r RID) {
	binary.LittleEndian.PutUint32(b[:4], uint32(r.Page))
	binary.LittleEndian.PutUint16(b[4:6], r.Slot)
}

// DecodeRID unpacks a 6-byte RID.
func DecodeRID(b []byte) (RID, error) {
	if len(b) < 6 {
		return RID{}, fmt.Errorf("relstore: short RID (%d bytes)", len(b))
	}
	return RID{
		Page: PageID(binary.LittleEndian.Uint32(b[:4])),
		Slot: binary.LittleEndian.Uint16(b[4:]),
	}, nil
}

// HeapFile is an append-oriented chain of slotted pages.
type HeapFile struct {
	bp    *BufferPool
	first PageID
	last  PageID
	rows  int64
}

// NewHeapFile allocates an empty heap file.
func NewHeapFile(bp *BufferPool) (*HeapFile, error) {
	f, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	initHeapPage(f.Data())
	pid := f.PID()
	bp.Unpin(f, true)
	return &HeapFile{bp: bp, first: pid, last: pid}, nil
}

func initHeapPage(p []byte) {
	binary.LittleEndian.PutUint32(p[0:], uint32(InvalidPage))
	binary.LittleEndian.PutUint16(p[4:], 0)
	binary.LittleEndian.PutUint16(p[6:], PageSize)
}

func heapNext(p []byte) PageID  { return PageID(binary.LittleEndian.Uint32(p[0:])) }
func heapCount(p []byte) uint16 { return binary.LittleEndian.Uint16(p[4:]) }
func heapFree(p []byte) uint16  { return binary.LittleEndian.Uint16(p[6:]) }

func heapSlot(p []byte, i uint16) (off, length uint16) {
	base := heapHdr + int(i)*heapSlotLen
	return binary.LittleEndian.Uint16(p[base:]), binary.LittleEndian.Uint16(p[base+2:])
}

func heapSetSlot(p []byte, i uint16, off, length uint16) {
	base := heapHdr + int(i)*heapSlotLen
	binary.LittleEndian.PutUint16(p[base:], off)
	binary.LittleEndian.PutUint16(p[base+2:], length)
}

// heapPageErr reports a page whose slot array and record area overlap or
// run off it: a damaged catalog pointing a heap at a page that never was one.
func heapPageErr(pid PageID, p []byte) error {
	count, free := int(heapCount(p)), int(heapFree(p))
	if heapHdr+count*heapSlotLen > free || free > PageSize {
		return fmt.Errorf("relstore: heap page %d: %d slots and records from offset %d do not fit a page", pid, count, free)
	}
	return nil
}

// heapRoom reports whether a record of length n fits in the page.
func heapRoom(p []byte, n int) bool {
	count := int(heapCount(p))
	free := int(heapFree(p))
	return free-(heapHdr+count*heapSlotLen) >= n+heapSlotLen
}

// Rows returns the record count.
func (h *HeapFile) Rows() int64 { return h.rows }

// Insert appends a record and returns its RID. It is the run of one.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	var rid [1]RID
	err := h.InsertRun([][]byte{rec}, rid[:])
	return rid[0], err
}

// InsertRun appends recs in slice order, exactly as a loop of Insert would,
// and stores each record's RID in rids (which must be as long as recs). The
// tail page is pinned once for all the records it takes instead of once per
// record.
func (h *HeapFile) InsertRun(recs [][]byte, rids []RID) error {
	for _, rec := range recs {
		if len(rec) > MaxRecordLen {
			return fmt.Errorf("relstore: record too large (%d bytes)", len(rec))
		}
	}
	if len(recs) == 0 {
		return nil
	}
	f, err := h.bp.Fetch(h.last)
	if err != nil {
		return err
	}
	if err := heapPageErr(h.last, f.Data()); err != nil {
		h.bp.Unpin(f, false)
		return err
	}
	p, wrote := f.Data(), false // wrote: this run has put a record on f
	for i, rec := range recs {
		if !heapRoom(p, len(rec)) {
			nf, err := h.bp.NewPage()
			if err != nil {
				h.bp.Unpin(f, wrote)
				return err
			}
			initHeapPage(nf.Data())
			binary.LittleEndian.PutUint32(p[0:], uint32(nf.PID()))
			h.bp.Unpin(f, true)
			h.last = nf.PID()
			f, p, wrote = nf, nf.Data(), false
		}
		count := heapCount(p)
		off := heapFree(p) - uint16(len(rec))
		copy(p[off:], rec)
		heapSetSlot(p, count, off, uint16(len(rec)))
		binary.LittleEndian.PutUint16(p[4:], count+1)
		binary.LittleEndian.PutUint16(p[6:], off)
		rids[i] = RID{Page: f.PID(), Slot: count}
		h.rows++
		wrote = true
	}
	h.bp.Unpin(f, true)
	return nil
}

// view pins rid's page and hands fn the record where it lies. fn may read
// the bytes and, when write is set, overwrite them; it must not keep the
// slice and cannot change the record's length.
func (h *HeapFile) view(rid RID, write bool, fn func(rec []byte) error) error {
	f, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer h.bp.Unpin(f, write)
	p := f.Data()
	off, length, err := heapRecord(p, rid)
	if err != nil {
		return err
	}
	end := int(off) + int(length)
	return fn(p[off:end:end])
}

// heapRecord locates rid's record on its page p, refusing a page that is
// not a heap page and a slot that is absent or points outside the record
// area.
func heapRecord(p []byte, rid RID) (off, length uint16, err error) {
	if err := heapPageErr(rid.Page, p); err != nil {
		return 0, 0, err
	}
	if rid.Slot >= heapCount(p) {
		return 0, 0, fmt.Errorf("relstore: RID %v out of range", rid)
	}
	off, length = heapSlot(p, rid.Slot)
	if off < heapFree(p) || int(off)+int(length) > PageSize {
		return 0, 0, fmt.Errorf("relstore: RID %v: record at %d+%d lies outside its page's records", rid, off, length)
	}
	return off, length, nil
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	var out []byte
	err := h.view(rid, false, func(rec []byte) error {
		out = cloneBytes(rec)
		return nil
	})
	return out, err
}

// Update overwrites the record at rid in place. The new record must not be
// longer than the old one (the crawl tables only mutate fixed-width
// columns).
func (h *HeapFile) Update(rid RID, rec []byte) error {
	f, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer h.bp.Unpin(f, true)
	p := f.Data()
	off, length, err := heapRecord(p, rid)
	if err != nil {
		return err
	}
	if len(rec) > int(length) {
		return fmt.Errorf("relstore: update grows record (%d > %d)", len(rec), length)
	}
	copy(p[off:], rec)
	heapSetSlot(p, rid.Slot, off, uint16(len(rec)))
	return nil
}

// Scan visits every record in chain order. fn may return stop=true to end
// early. The record slice is only valid during the callback. A chain longer
// than the disk loops, and is an error, as is a slot whose record lies
// outside its page's records.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) (stop bool, err error)) error {
	return h.scanFrom(RID{Page: h.first}, false, fn)
}

// ScanFrom is Scan started at the record at rid: it visits that record and
// every later one, and reads no page before rid's. A rid that names no
// record is an error.
func (h *HeapFile) ScanFrom(rid RID, fn func(rid RID, rec []byte) (stop bool, err error)) error {
	if rid.Page == InvalidPage {
		return fmt.Errorf("relstore: RID %v names no record", rid)
	}
	return h.scanFrom(rid, true, fn)
}

// scanFrom visits the records from slot from.Slot of page from.Page on;
// named requires that slot to hold a record.
func (h *HeapFile) scanFrom(from RID, named bool, fn func(rid RID, rec []byte) (stop bool, err error)) error {
	limit := h.bp.Disk().NumPages()
	for pid, pages := from.Page, int64(0); pid != InvalidPage; pages++ {
		if pages == limit {
			return fmt.Errorf("relstore: heap chain from page %d passes %d pages: it loops", from.Page, limit)
		}
		f, err := h.bp.Fetch(pid)
		if err != nil {
			return err
		}
		p, first := f.Data(), uint16(0)
		if pages == 0 {
			first = from.Slot
		}
		if pages == 0 && named {
			_, _, err = heapRecord(p, from)
		} else {
			err = heapPageErr(pid, p)
		}
		if err != nil {
			h.bp.Unpin(f, false)
			return err
		}
		count, free := heapCount(p), heapFree(p)
		next := heapNext(p)
		for i := first; i < count; i++ {
			off, length := heapSlot(p, i)
			if off < free || int(off)+int(length) > PageSize {
				h.bp.Unpin(f, false)
				return fmt.Errorf("relstore: heap page %d: slot %d record at %d+%d lies outside its records", pid, i, off, length)
			}
			stop, err := fn(RID{Page: pid, Slot: i}, p[off:int(off)+int(length)])
			if err != nil || stop {
				h.bp.Unpin(f, false)
				return err
			}
		}
		h.bp.Unpin(f, false)
		pid = next
	}
	return nil
}

// Truncate resets the heap file to a single empty page and returns the old
// chain's pages to the disk manager's free list, so the distiller's
// rebuild-HUBS/AUTH-each-half-iteration pattern recycles the same pages
// instead of growing the disk without bound.
func (h *HeapFile) Truncate() error {
	old := h.first
	f, err := h.bp.NewPage()
	if err != nil {
		return err
	}
	initHeapPage(f.Data())
	pid := f.PID()
	h.bp.Unpin(f, true)
	h.first = pid
	h.last = pid
	h.rows = 0
	return h.freeChain(old)
}

// FreePages returns every page of the heap chain to the disk manager's free
// list. The heap file is unusable afterwards; callers drop it (DropTable) or
// re-point it first (Truncate).
func (h *HeapFile) FreePages() error {
	err := h.freeChain(h.first)
	h.first, h.last = InvalidPage, InvalidPage
	return err
}

// freeChain walks a page chain from pid, freeing each page. The next
// pointer is read before the page is freed.
func (h *HeapFile) freeChain(pid PageID) error {
	for pid != InvalidPage {
		f, err := h.bp.Fetch(pid)
		if err != nil {
			return err
		}
		next := heapNext(f.Data())
		h.bp.Unpin(f, false)
		if err := h.bp.FreePage(pid); err != nil {
			return err
		}
		pid = next
	}
	return nil
}
