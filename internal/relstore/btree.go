package relstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// B+tree node page layout:
//
//	[0]     flags (bit 0: leaf)
//	[1:3)   cell count (u16)
//	[3:7)   next leaf (u32, leaves only)
//	[7:11)  leftmost child (u32, internal only)
//	[11+6i: 11+6i+6) slot i: cell offset (u16), key len (u16), val len (u16)
//
// Slots are sorted by key. Cell bytes (key then value) live between the end
// of the slot array and the page end, in no particular order and possibly
// with holes. Internal node values are 4-byte child page IDs; the child at
// position 0 lives in the header's leftmost-child field, so an internal node
// with k keys has k+1 children.
//
// Every operation works on the pinned frame's bytes; no node is ever decoded
// into a separate structure. Searches compare keys in place. The free gap is
// the run between the slot array and the lowest live cell; it is not
// recorded on the page but recomputed from the slot array by the operations
// that need it (insert, growing replace). The rules that keep a page sound:
//
//   - insert writes the new cell at the top of the free gap and shifts the
//     slot array up by one; the slot array grows into the gap from below;
//   - delete removes the slot only — the cell becomes a hole, reclaimed for
//     free when it was the lowest cell and by compaction otherwise;
//   - replace overwrites the value where it lies when the new one is no
//     longer, and otherwise drops the slot and inserts the cell anew;
//   - when the gap is too small but slots plus live cell bytes leave room,
//     the page is compacted in place (cells rewritten in slot order, flush
//     against the page end — the form a split also produces);
//   - a node splits only when its logical size — header, slots and live
//     cell bytes, holes not counted — would exceed PageSize, by count: the
//     lower half of the cells stays, the upper half moves to a new right
//     sibling.
//
// Slot contents are bounds-checked where they are read (see btSlotAt), so a
// damaged page surfaces as ErrCorruptNode from the operation that touched
// it, never as a panic or an endless walk.
const (
	btHdr  = 11
	btSlot = 6
	// MaxCellLen bounds key+value length so that an overfull node always
	// divides into two that fit a page each (see split).
	MaxCellLen = 1024
)

var errCellTooBig = errors.New("relstore: btree cell exceeds MaxCellLen")

// ErrCorruptNode is wrapped by every error a B+tree operation returns
// because a node page's bytes do not describe a node: a slot count or cell
// offset outside the page, a missing child pointer, a leaf where an internal
// node belongs, a leaf chain longer than the disk.
var ErrCorruptNode = errors.New("relstore: corrupt btree node")

func btU16(p []byte, at int) int { return int(binary.LittleEndian.Uint16(p[at:])) }

func btPutU16(p []byte, at, v int) { binary.LittleEndian.PutUint16(p[at:], uint16(v)) }

func btPID(p []byte, at int) PageID { return PageID(binary.LittleEndian.Uint32(p[at:])) }

func btPutPID(p []byte, at int, pid PageID) { binary.LittleEndian.PutUint32(p[at:], uint32(pid)) }

func btIsLeaf(p []byte) bool { return p[0]&1 != 0 }

// btInit writes an empty node header into p.
func btInit(p []byte, leaf bool, next, left PageID) {
	p[0] = 0
	if leaf {
		p[0] = 1
	}
	btPutU16(p, 1, 0)
	btPutPID(p, 3, next)
	btPutPID(p, 7, left)
}

// btCount returns the node's slot count, refusing one whose slot array would
// run off the page.
func btCount(p []byte) (int, error) {
	n := btU16(p, 1)
	if btHdr+n*btSlot > PageSize {
		return 0, fmt.Errorf("%w: %d slots", ErrCorruptNode, n)
	}
	return n, nil
}

// btSlotAt decodes slot i of a node with n slots. ok is false when the cell
// it names does not lie between the end of the slot array and the page end.
func btSlotAt(p []byte, n, i int) (off, klen, vlen int, ok bool) {
	base := btHdr + i*btSlot
	off, klen, vlen = btU16(p, base), btU16(p, base+2), btU16(p, base+4)
	return off, klen, vlen, off >= btHdr+n*btSlot && off+klen+vlen <= PageSize
}

func btPutSlot(p []byte, i, off, klen, vlen int) {
	base := btHdr + i*btSlot
	btPutU16(p, base, off)
	btPutU16(p, base+2, klen)
	btPutU16(p, base+4, vlen)
}

func errBadSlot(i int) error {
	return fmt.Errorf("%w: slot %d names a cell outside the page", ErrCorruptNode, i)
}

// btCell returns slot i's key and value as slices of p, capped so that an
// append by whoever receives them cannot grow into a neighbouring cell.
func btCell(p []byte, n, i int) (key, val []byte, err error) {
	off, klen, vlen, ok := btSlotAt(p, n, i)
	if !ok {
		return nil, nil, errBadSlot(i)
	}
	v := off + klen
	return p[off:v:v], p[v : v+vlen : v+vlen], nil
}

// btSearch binary-searches node p's slot array, comparing keys where they
// lie: n is p's slot count, i the first slot whose key is >= key (n when
// there is none), found whether that slot's key equals key.
func btSearch(p, key []byte) (n, i int, found bool, err error) {
	if n, err = btCount(p); err != nil {
		return 0, 0, false, err
	}
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		off, klen, _, ok := btSlotAt(p, n, m)
		if !ok {
			return 0, 0, false, errBadSlot(m)
		}
		switch c := bytes.Compare(p[off:off+klen], key); {
		case c == 0:
			return n, m, true, nil
		case c < 0:
			lo = m + 1
		default:
			hi = m
		}
	}
	return n, lo, false, nil
}

// btChildFor returns which child of internal node p covers key — the one
// after the last separator <= key — and that child's page.
func btChildFor(p, key []byte) (int, PageID, error) {
	n, i, found, err := btSearch(p, key)
	if err != nil {
		return 0, InvalidPage, err
	}
	if found {
		i++
	}
	child, err := btChild(p, n, i)
	return i, child, err
}

// btChild returns the i-th child (0 = leftmost) of an internal node.
func btChild(p []byte, n, i int) (PageID, error) {
	pid := btPID(p, 7)
	if i > 0 {
		off, klen, vlen, ok := btSlotAt(p, n, i-1)
		if !ok || vlen != 4 {
			return InvalidPage, errBadSlot(i - 1)
		}
		pid = btPID(p, off+klen)
	}
	if pid == InvalidPage {
		return InvalidPage, fmt.Errorf("%w: child %d is the invalid page", ErrCorruptNode, i)
	}
	return pid, nil
}

// btUse is a node's space accounting: its slot count, its live cell bytes and
// the lowest live cell offset (PageSize when there are no cells). The free gap
// is [end of slots, lo). The page does not record it; btUsage recomputes it
// from the slot array, and a run of inserts into one pinned leaf carries it
// along instead of recomputing it per key (see InsertRun).
type btUse struct{ n, live, lo int }

// btUsage computes the usage of a node with n slots, vouching for every slot
// it read.
func btUsage(p []byte, n int) (btUse, error) {
	u := btUse{n: n, lo: PageSize}
	for i := 0; i < n; i++ {
		off, klen, vlen, ok := btSlotAt(p, n, i)
		if !ok {
			return btUse{}, errBadSlot(i)
		}
		u.live += klen + vlen
		if off < u.lo {
			u.lo = off
		}
	}
	if btHdr+n*btSlot+u.live > PageSize {
		return btUse{}, fmt.Errorf("%w: %d cell bytes in %d slots overfill the page", ErrCorruptNode, u.live, n)
	}
	return u, nil
}

// btPlace makes (key, val) slot i of the node whose usage is u, writing the
// cell at the top of the free gap, and brings u up to date. It reports false,
// with nothing written, when the gap as it is cannot take the cell and one
// more slot. The caller vouches for i <= u.n and for u describing p; the gap
// test is what keeps the write inside the page.
func btPlace(p []byte, u *btUse, i int, key, val []byte) bool {
	need := len(key) + len(val)
	slotEnd := btHdr + u.n*btSlot
	if u.lo-need < slotEnd+btSlot {
		return false
	}
	off := u.lo - need
	copy(p[off:], key)
	copy(p[off+len(key):], val)
	copy(p[btHdr+(i+1)*btSlot:slotEnd+btSlot], p[btHdr+i*btSlot:slotEnd])
	btPutSlot(p, i, off, len(key), len(val))
	btPutU16(p, 1, u.n+1)
	u.n, u.live, u.lo = u.n+1, u.live+need, off
	return true
}

// btCompact rewrites the node's live cells in slot order, flush against the
// page end, closing every hole. The caller has run btUsage over the page;
// lo is at or below its lowest live cell.
func btCompact(p []byte, n, lo int) {
	var old [PageSize]byte
	copy(old[lo:], p[lo:])
	end := PageSize
	for i := 0; i < n; i++ {
		off, klen, vlen, _ := btSlotAt(p, n, i)
		end -= klen + vlen
		copy(p[end:], old[off:off+klen+vlen])
		btPutU16(p, btHdr+i*btSlot, end)
	}
}

func btRemoveSlot(p []byte, n, i int) {
	copy(p[btHdr+i*btSlot:], p[btHdr+(i+1)*btSlot:btHdr+n*btSlot])
	btPutU16(p, 1, n-1)
}

func cloneBytes(b []byte) []byte { return append([]byte(nil), b...) }

// BTree is a page-based B+tree over raw byte keys (compare = bytes.Compare).
// Keys are unique; Insert on an existing key replaces its value. Deletion
// does not rebalance: underfull (even empty) leaves stay in the chain and
// are skipped by scans, which is correct and adequate for this system's
// write patterns (the frontier drains roughly in key order).
//
// Pin discipline: an operation fetches each node it visits once and unpins
// it before fetching the next, so the tree itself never holds more than one
// frame (a Scan callback that reads another structure's page makes it two).
// A descent that will write remembers (page, child index) per level instead
// of keeping the parent pinned; only a split goes back — to the node it
// divides and to that node's parent. That is sound because all access to one
// tree is serialized by its owner (see the package doc).
type BTree struct {
	bp     *BufferPool
	root   PageID
	height int
	size   int64
}

// btStep is one internal node on a descent: the page and which of its
// children was taken.
type btStep struct {
	pid   PageID
	child int
}

// NewBTree creates an empty tree.
func NewBTree(bp *BufferPool) (*BTree, error) {
	f, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	btInit(f.Data(), true, InvalidPage, InvalidPage)
	t := &BTree{bp: bp, root: f.PID(), height: 1}
	bp.Unpin(f, true)
	return t, nil
}

// Len returns the number of keys in the tree.
func (t *BTree) Len() int64 { return t.size }

// Height returns the current tree height in levels.
func (t *BTree) Height() int { return t.height }

// fetch pins node pid, a page ID read out of another node (or the root). One
// the disk has never allocated is that node's damage, not an I/O failure.
func (t *BTree) fetch(pid PageID) (*Frame, error) {
	f, err := t.bp.Fetch(pid)
	if err != nil && int64(pid) > t.bp.Disk().NumPages() {
		return nil, fmt.Errorf("%w: pointer to page %d: %w", ErrCorruptNode, pid, err)
	}
	return f, err
}

// checkKind holds the node in f to the tree's recorded height: leaves appear
// at the last level and nowhere else. That is what stops a walk through
// damaged child pointers from cycling.
func (t *BTree) checkKind(f *Frame, level int) error {
	if btIsLeaf(f.Data()) != (level == t.height) {
		return fmt.Errorf("%w: page %d at level %d of %d has the wrong kind", ErrCorruptNode, f.PID(), level, t.height)
	}
	return nil
}

// descend walks from the root to the leaf that covers key (the leftmost leaf
// for a nil key) and returns it pinned. Internal nodes are unpinned as they
// are left; when path is non-nil each is appended to it and the grown path
// returned.
func (t *BTree) descend(key []byte, path []btStep) (*Frame, []btStep, error) {
	pid := t.root
	for level := 1; ; level++ {
		f, err := t.fetch(pid)
		if err != nil {
			return nil, nil, err
		}
		if err := t.checkKind(f, level); err != nil {
			t.bp.Unpin(f, false)
			return nil, nil, err
		}
		if level == t.height {
			return f, path, nil
		}
		ci, child, err := btChildFor(f.Data(), key)
		t.bp.Unpin(f, false)
		if err != nil {
			return nil, nil, fmt.Errorf("node %d: %w", pid, err)
		}
		if path != nil {
			path = append(path, btStep{pid, ci})
		}
		pid = child
	}
}

// find pins the leaf covering key and returns the value stored for key as a
// slice of that frame. When err is nil the caller owns the pin on f.
func (t *BTree) find(key []byte) (f *Frame, val []byte, ok bool, err error) {
	f, _, err = t.descend(key, nil)
	if err != nil {
		return nil, nil, false, err
	}
	n, i, ok, err := btSearch(f.Data(), key)
	if err == nil && ok {
		_, val, err = btCell(f.Data(), n, i)
	}
	if err != nil {
		t.bp.Unpin(f, false)
		return nil, nil, false, fmt.Errorf("leaf %d: %w", f.PID(), err)
	}
	return f, val, ok, nil
}

// Get returns a copy of the value stored for key, if any.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	f, v, ok, err := t.find(key)
	if err != nil {
		return nil, false, err
	}
	if ok {
		v = cloneBytes(v)
	}
	t.bp.Unpin(f, false)
	return v, ok, nil
}

// Insert stores (key, val), replacing any existing value for key. It is the
// run of one.
func (t *BTree) Insert(key, val []byte) error {
	return t.InsertRun([][]byte{key}, [][]byte{val})
}

// InsertRun stores (keys[i], vals[i]) for every i, in slice order, each as
// Insert would: the tree ends up exactly as a loop of Insert leaves it. What
// a run saves is descents. After a key has gone into the pinned leaf, the
// next one goes into the same leaf without leaving it when it provably
// belongs there — it is not below the key just placed, and either some key
// already in the leaf is greater or the leaf is the last of the chain, which
// has no upper bound — and the leaf's usage, computed once per descent, is
// carried from key to key. So an ascending run costs one descent per leaf it
// touches instead of one per key; keys in any other order are still inserted
// correctly, one descent each. A cell that does not fit the free gap as it is
// (compaction, split) or that replaces a shorter value goes through put, as
// every Insert does, and the run resumes with a fresh descent.
func (t *BTree) InsertRun(keys, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("relstore: InsertRun of %d keys and %d values", len(keys), len(vals))
	}
	for i, key := range keys {
		if len(key)+len(vals[i]) > MaxCellLen {
			return errCellTooBig
		}
		if len(key) == 0 {
			return errors.New("relstore: empty btree key")
		}
	}
	var steps [8]btStep
	for i := 0; i < len(keys); {
		f, path, err := t.descend(keys[i], steps[:0])
		if err != nil {
			return err
		}
		if i, err = t.fillLeaf(f, path, keys, vals, i); err != nil {
			return err
		}
	}
	return nil
}

// usage returns the accounting of the pinned node f, which stays pinned.
func (t *BTree) usage(f *Frame) (btUse, error) {
	n, err := btCount(f.Data())
	var u btUse
	if err == nil {
		u, err = btUsage(f.Data(), n)
	}
	if err != nil {
		return btUse{}, fmt.Errorf("node %d: %w", f.PID(), err)
	}
	return u, nil
}

// fillLeaf inserts keys[i:] into f, the pinned leaf that covers keys[i] and
// that path leads to, for as long as the next key provably belongs to the
// same leaf (see InsertRun), and returns the index of the first key it left
// for another descent. It unpins f.
func (t *BTree) fillLeaf(f *Frame, path []btStep, keys, vals [][]byte, i int) (int, error) {
	p := f.Data()
	u, err := t.usage(f)
	if err != nil {
		t.bp.Unpin(f, false)
		return i, err
	}
	for dirty := false; ; {
		key, val := keys[i], vals[i]
		_, at, found, err := btSearch(p, key)
		if err != nil {
			t.bp.Unpin(f, dirty)
			return i, fmt.Errorf("leaf %d: %w", f.PID(), err)
		}
		placed := false
		if found {
			// A value no longer than the one stored overwrites it where it lies.
			if off, klen, vlen, _ := btSlotAt(p, u.n, at); len(val) <= vlen {
				copy(p[off+klen:], val)
				btPutU16(p, btHdr+at*btSlot+4, len(val))
				u.live -= vlen - len(val)
				placed = true
			}
		} else if placed = btPlace(p, &u, at, key, val); placed {
			t.size++
		}
		if !placed {
			// put unpins f, clean when it has nothing to write; what the run
			// wrote before it must be marked first.
			if dirty {
				t.bp.markDirty(f)
			}
			return i + 1, t.putLeaf(f, u, path, at, key, val, found)
		}
		dirty = true
		if i++; i == len(keys) || !btRunsOn(p, u.n, key, keys[i]) {
			t.bp.Unpin(f, true)
			return i, nil
		}
	}
}

// btRunsOn reports whether next, the key after prev in a run, belongs to the
// leaf p (n slots, n > 0) that prev has just gone into: it is not below prev,
// so not below the leaf's range, and it is below a key the leaf holds, or the
// leaf is the rightmost and its range has no end.
func btRunsOn(p []byte, n int, prev, next []byte) bool {
	if bytes.Compare(next, prev) < 0 {
		return false
	}
	if btPID(p, 3) == InvalidPage {
		return true
	}
	last, _, err := btCell(p, n, n-1)
	return err == nil && bytes.Compare(last, next) > 0
}

// putLeaf makes (key, val) slot i of the pinned leaf f through put, and posts
// each split it causes one level up along path — where it may split again.
func (t *BTree) putLeaf(f *Frame, u btUse, path []btStep, i int, key, val []byte, replace bool) error {
	sep, right, err := t.put(f, u, i, key, val, replace)
	if err != nil {
		return err
	}
	if !replace {
		t.size++
	}
	var pidBuf [4]byte
	for right != InvalidPage {
		if len(path) == 0 {
			return t.growRoot(sep, right)
		}
		up := path[len(path)-1]
		path = path[:len(path)-1]
		if f, err = t.fetch(up.pid); err != nil {
			return err
		}
		if u, err = t.usage(f); err != nil {
			t.bp.Unpin(f, false)
			return err
		}
		btPutPID(pidBuf[:], 0, right)
		if sep, right, err = t.put(f, u, up.child, sep, pidBuf[:], false); err != nil {
			return err
		}
	}
	return nil
}

// growRoot installs a new root over the old one and its new right sibling.
func (t *BTree) growRoot(sep []byte, right PageID) error {
	f, err := t.bp.NewPage()
	if err != nil {
		return err
	}
	btInit(f.Data(), false, InvalidPage, t.root)
	t.root = f.PID()
	t.height++
	var pid [4]byte
	btPutPID(pid[:], 0, right)
	_, _, err = t.put(f, btUse{lo: PageSize}, 0, sep, pid[:], false)
	return err
}

// put makes (key, val) slot i of the pinned node f, whose usage is u — a leaf
// cell, or a separator and child pointer of an internal node — dropping the
// current slot i first when replace is set. It unpins f. When the node has to
// split, put returns the key that separates it from its new right sibling
// and that sibling's page; otherwise right is InvalidPage.
func (t *BTree) put(f *Frame, u btUse, i int, key, val []byte, replace bool) (sep []byte, right PageID, err error) {
	p := f.Data()
	if i > u.n || (replace && i == u.n) {
		t.bp.Unpin(f, false)
		return nil, InvalidPage, fmt.Errorf("node %d: %w: no slot %d among %d", f.PID(), ErrCorruptNode, i, u.n)
	}
	n := u.n
	if replace {
		_, klen, vlen, _ := btSlotAt(p, n, i)
		u.live -= klen + vlen
		u.n--
	}
	if btHdr+(u.n+1)*btSlot+u.live+len(key)+len(val) > PageSize {
		return t.split(f, i, key, val, replace)
	}
	if replace {
		// u.lo may now sit below the lowest live cell; that only makes the
		// gap look smaller than it is.
		btRemoveSlot(p, n, i)
	}
	if !btPlace(p, &u, i, key, val) {
		btCompact(p, u.n, u.lo)
		u.lo = PageSize - u.live
		btPlace(p, &u, i, key, val)
	}
	t.bp.Unpin(f, true)
	return nil, InvalidPage, nil
}

// btSeq is the cell sequence a node holds once put has run: the cells of
// page image old with (key, val) at position pos, and old's slot pos left
// out when the new cell replaces it. A split reads its two halves from it.
type btSeq struct {
	old      [PageSize]byte
	n        int // slots in old
	pos      int
	skip     int // 1 when the cell at pos replaces old's, else 0
	key, val []byte
}

func (s *btSeq) len() int { return s.n + 1 - s.skip }

func (s *btSeq) cell(j int) (key, val []byte, err error) {
	if j == s.pos {
		return s.key, s.val, nil
	}
	if j > s.pos {
		j += s.skip - 1
	}
	return btCell(s.old[:], s.n, j)
}

// bytes is the page space cells [lo, hi) take, slots included.
func (s *btSeq) bytes(lo, hi int) (int, error) {
	total := 0
	for j := lo; j < hi; j++ {
		k, v, err := s.cell(j)
		if err != nil {
			return 0, err
		}
		total += btSlot + len(k) + len(v)
	}
	return total, nil
}

// fill appends cells [lo, hi) to the initialized, empty node p, in slot
// order from the page end down. The caller has sized them with bytes, which
// also vouches for every cell it read.
func (s *btSeq) fill(p []byte, lo, hi int) {
	end := PageSize
	for j := lo; j < hi; j++ {
		k, v, _ := s.cell(j)
		end -= len(k) + len(v)
		copy(p[end:], k)
		copy(p[end+len(k):], v)
		btPutSlot(p, j-lo, end, len(k), len(v))
	}
	btPutU16(p, 1, hi-lo)
}

// split divides the overfull node that put(f, i, key, val, replace) would
// make between f and a new right sibling, and unpins f. The boundary is by
// count — the lower count/2 cells stay — and moves toward the heavier half
// only when one half would not fit a page, which takes cells near
// MaxCellLen. A leaf's separator is a copy of the sibling's first key; an
// internal node's middle cell moves up instead: its key is the separator,
// its child the sibling's leftmost.
//
// The node's image is copied and its pin dropped before the sibling is
// allocated, and the node is fetched again to receive its half: a split
// never needs two frames at once, and nothing is written until the sibling
// exists.
func (t *BTree) split(f *Frame, i int, key, val []byte, replace bool) (sep []byte, right PageID, err error) {
	pid := f.PID()
	seq := btSeq{n: btU16(f.Data(), 1), pos: i, key: key, val: val}
	if replace {
		seq.skip = 1
	}
	copy(seq.old[:], f.Data())
	t.bp.Unpin(f, false)
	old := seq.old[:]
	leaf, total := btIsLeaf(old), seq.len()
	up := 1 // cells that leave the level: an internal node's middle one
	if leaf {
		up = 0
	}
	const room = PageSize - btHdr
	mid, moved := total/2, 0
	for {
		var lb, rb int
		if lb, err = seq.bytes(0, mid); err == nil {
			rb, err = seq.bytes(mid+up, total)
		}
		if err != nil {
			return nil, InvalidPage, fmt.Errorf("node %d: %w", pid, err)
		}
		if lb <= room && rb <= room {
			break
		}
		dir := 1
		if lb > room {
			dir = -1
		}
		if moved == -dir || mid+dir < 1 || mid+dir >= total {
			return nil, InvalidPage, fmt.Errorf("%w: node %d: %d cells split into no two pages", ErrCorruptNode, pid, total)
		}
		mid, moved = mid+dir, dir
	}
	k, v, err := seq.cell(mid)
	if err == nil && !leaf && len(v) != 4 {
		err = errBadSlot(mid)
	}
	if err != nil {
		return nil, InvalidPage, fmt.Errorf("node %d: %w", pid, err)
	}
	sep = cloneBytes(k)

	rf, err := t.bp.NewPage()
	if err != nil {
		return nil, InvalidPage, err
	}
	right = rf.PID()
	if leaf {
		btInit(rf.Data(), true, btPID(old, 3), InvalidPage)
	} else {
		btInit(rf.Data(), false, InvalidPage, btPID(v, 0))
	}
	seq.fill(rf.Data(), mid+up, total)
	t.bp.Unpin(rf, true)

	if f, err = t.bp.Fetch(pid); err != nil {
		return nil, InvalidPage, err
	}
	if leaf {
		btInit(f.Data(), true, right, InvalidPage)
	} else {
		btInit(f.Data(), false, InvalidPage, btPID(old, 7))
	}
	seq.fill(f.Data(), 0, mid)
	t.bp.Unpin(f, true)
	return sep, right, nil
}

// Delete removes key from the tree, reporting whether it was present.
func (t *BTree) Delete(key []byte) (bool, error) {
	f, _, err := t.descend(key, nil)
	if err != nil {
		return false, err
	}
	n, i, found, err := btSearch(f.Data(), key)
	if err != nil {
		t.bp.Unpin(f, false)
		return false, fmt.Errorf("leaf %d: %w", f.PID(), err)
	}
	if found {
		btRemoveSlot(f.Data(), n, i)
		t.size--
	}
	t.bp.Unpin(f, found)
	return found, nil
}

// Scan visits keys in [from, to) in ascending order. Either bound may be nil
// (unbounded). The key and value passed to fn are slices of the pinned leaf:
// they are valid during that call only — copy what must outlive it — and
// must not be modified. fn must not insert into or delete from the tree it
// is scanning; it may read and write other structures.
func (t *BTree) Scan(from, to []byte, fn func(key, val []byte) (stop bool, err error)) error {
	f, _, err := t.descend(from, nil)
	if err != nil {
		return err
	}
	var limit int64 // pages on disk, looked up at the first chain step
	for steps := int64(1); ; steps++ {
		pid, next := f.PID(), btPID(f.Data(), 3)
		stop, err := scanLeaf(pid, f.Data(), from, to, fn)
		t.bp.Unpin(f, false)
		if err != nil || stop || next == InvalidPage {
			return err
		}
		from = nil
		if steps == 1 {
			limit = t.bp.Disk().NumPages()
		}
		if steps >= limit {
			return fmt.Errorf("%w: leaf chain through page %d is longer than the disk's %d pages", ErrCorruptNode, pid, limit)
		}
		if f, err = t.fetch(next); err != nil {
			return err
		}
		if !btIsLeaf(f.Data()) {
			t.bp.Unpin(f, false)
			return fmt.Errorf("%w: leaf %d chains to page %d, not a leaf", ErrCorruptNode, pid, next)
		}
	}
}

// scanLeaf feeds the cells in [from, to) of leaf pid, whose bytes are p, to
// fn; stop reports that the scan is over, by fn's word or by reaching to.
func scanLeaf(pid PageID, p, from, to []byte, fn func(k, v []byte) (bool, error)) (stop bool, err error) {
	n, i, _, err := btSearch(p, from) // from == nil: slot 0
	if err != nil {
		return true, fmt.Errorf("leaf %d: %w", pid, err)
	}
	for ; i < n; i++ {
		k, v, err := btCell(p, n, i)
		if err != nil {
			return true, fmt.Errorf("leaf %d: %w", pid, err)
		}
		if to != nil && bytes.Compare(k, to) >= 0 {
			return true, nil
		}
		if stop, err := fn(k, v); err != nil || stop {
			return true, err
		}
	}
	return false, nil
}

// FreePages returns every node page of the tree to the disk manager's free
// list via depth-first walk. The tree is unusable afterwards; callers drop
// it (DropTable) or replace it (Truncate).
func (t *BTree) FreePages() error {
	if t.root == InvalidPage {
		return nil
	}
	err := t.freeSubtree(t.root, 1)
	t.root = InvalidPage
	return err
}

func (t *BTree) freeSubtree(pid PageID, level int) error {
	f, err := t.fetch(pid)
	if err != nil {
		return err
	}
	p := f.Data()
	var kids []PageID
	if err = t.checkKind(f, level); err == nil && level < t.height {
		// Children are copied out so no pin is held down the recursion.
		var n int
		n, err = btCount(p)
		for i := 0; err == nil && i <= n; i++ {
			var kid PageID
			if kid, err = btChild(p, n, i); err == nil {
				kids = append(kids, kid)
			}
		}
	}
	t.bp.Unpin(f, false)
	if err != nil {
		return err
	}
	for _, kid := range kids {
		if err := t.freeSubtree(kid, level+1); err != nil {
			return err
		}
	}
	return t.bp.FreePage(pid)
}

// First returns copies of the smallest key and its value, if the tree is
// non-empty.
func (t *BTree) First() (key, val []byte, ok bool, err error) {
	err = t.Scan(nil, nil, func(k, v []byte) (bool, error) {
		key, val, ok = cloneBytes(k), cloneBytes(v), true
		return true, nil
	})
	return key, val, ok, err
}
