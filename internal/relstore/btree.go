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

// btUsage returns the node's live cell bytes and the lowest live cell offset
// (PageSize when there are no cells): the free gap is [end of slots, lo).
func btUsage(p []byte, n int) (live, lo int, err error) {
	lo = PageSize
	for i := 0; i < n; i++ {
		off, klen, vlen, ok := btSlotAt(p, n, i)
		if !ok {
			return 0, 0, errBadSlot(i)
		}
		live += klen + vlen
		if off < lo {
			lo = off
		}
	}
	if btHdr+n*btSlot+live > PageSize {
		return 0, 0, fmt.Errorf("%w: %d cell bytes in %d slots overfill the page", ErrCorruptNode, live, n)
	}
	return live, lo, nil
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

// Insert stores (key, val), replacing any existing value for key.
func (t *BTree) Insert(key, val []byte) error {
	if len(key)+len(val) > MaxCellLen {
		return errCellTooBig
	}
	if len(key) == 0 {
		return errors.New("relstore: empty btree key")
	}
	f, path, err := t.descend(key, make([]btStep, 0, 8))
	if err != nil {
		return err
	}
	p := f.Data()
	n, i, found, err := btSearch(p, key)
	if err != nil {
		t.bp.Unpin(f, false)
		return fmt.Errorf("leaf %d: %w", f.PID(), err)
	}
	if found {
		if off, klen, vlen, _ := btSlotAt(p, n, i); len(val) <= vlen {
			copy(p[off+klen:], val)
			btPutU16(p, btHdr+i*btSlot+4, len(val))
			t.bp.Unpin(f, true)
			return nil
		}
	}
	// put unpins f. A split hands back the separator and the new right
	// sibling, to be posted one level up — where it may split again.
	sep, right, err := t.put(f, i, key, val, found)
	if err != nil {
		return err
	}
	if !found {
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
		btPutPID(pidBuf[:], 0, right)
		if sep, right, err = t.put(f, up.child, sep, pidBuf[:], false); err != nil {
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
	_, _, err = t.put(f, 0, sep, pid[:], false)
	return err
}

// put makes (key, val) slot i of the pinned node f — a leaf cell, or a
// separator and child pointer of an internal node — dropping the current
// slot i first when replace is set. It unpins f. When the node has to split,
// put returns the key that separates it from its new right sibling and that
// sibling's page; otherwise right is InvalidPage.
func (t *BTree) put(f *Frame, i int, key, val []byte, replace bool) (sep []byte, right PageID, err error) {
	p := f.Data()
	n, err := btCount(p)
	var live, lo int
	if err == nil {
		live, lo, err = btUsage(p, n)
	}
	if err == nil && i > n {
		err = fmt.Errorf("%w: no slot %d among %d", ErrCorruptNode, i, n)
	}
	if err != nil {
		t.bp.Unpin(f, false)
		return nil, InvalidPage, fmt.Errorf("node %d: %w", f.PID(), err)
	}
	m := n // slots that stay
	if replace {
		_, klen, vlen, _ := btSlotAt(p, n, i)
		live -= klen + vlen
		m--
	}
	need := len(key) + len(val)
	if btHdr+(m+1)*btSlot+live+need > PageSize {
		return t.split(f, i, key, val, replace)
	}
	if replace {
		// lo may now sit below the lowest live cell; that only makes the
		// gap look smaller than it is.
		btRemoveSlot(p, n, i)
	}
	slotEnd := btHdr + m*btSlot
	if lo-need < slotEnd+btSlot {
		btCompact(p, m, lo)
		lo = PageSize - live
	}
	off := lo - need
	copy(p[off:], key)
	copy(p[off+len(key):], val)
	copy(p[btHdr+(i+1)*btSlot:slotEnd+btSlot], p[btHdr+i*btSlot:slotEnd])
	btPutSlot(p, i, off, len(key), len(val))
	btPutU16(p, 1, m+1)
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
// never needs two frames at once, which a pool shard may not have, and
// nothing is written until the sibling exists.
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
// it (DropIndex, DropTable) or replace it (Truncate).
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
