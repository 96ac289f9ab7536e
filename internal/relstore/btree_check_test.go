package relstore

import (
	"bytes"
	"fmt"
	"sort"
)

// check verifies the tree's structure page by page: every node's slots are
// strictly ascending, its cells lie inside the page and are pairwise
// disjoint, header + slots + live cell bytes fit a page; every key lies
// inside the bounds its ancestors' separators set; leaves appear exactly at
// the recorded height; the leaf chain visits the leaves in the order the
// descent finds them; the keys number Len(); and the walk — like whatever
// ran before it — leaves no frame pinned. It is the B+tree part of what
// ROADMAP item E calls relstore.Verify.
func (t *BTree) check() error {
	if n := pinnedFrames(t.bp); n != 0 {
		return fmt.Errorf("%d frames left pinned", n)
	}
	var leaves []PageID
	keys, err := t.checkNode(t.root, 1, nil, nil, &leaves)
	if err != nil {
		return err
	}
	if keys != t.size {
		return fmt.Errorf("tree holds %d keys, Len() says %d", keys, t.size)
	}
	pid := leaves[0]
	for i, want := range leaves {
		if pid != want {
			return fmt.Errorf("leaf chain step %d is page %d, descent order says %d", i, pid, want)
		}
		f, err := t.bp.Fetch(pid)
		if err != nil {
			return err
		}
		pid = btPID(f.Data(), 3)
		t.bp.Unpin(f, false)
	}
	if pid != InvalidPage {
		return fmt.Errorf("leaf chain runs on to page %d past the last leaf", pid)
	}
	if n := pinnedFrames(t.bp); n != 0 {
		return fmt.Errorf("check left %d frames pinned", n)
	}
	return nil
}

// checkNode checks the subtree under pid, whose keys must lie in [lo, hi)
// (nil = unbounded), appends its leaves to *leaves in key order and returns
// its key count.
func (t *BTree) checkNode(pid PageID, level int, lo, hi []byte, leaves *[]PageID) (int64, error) {
	f, err := t.bp.Fetch(pid)
	if err != nil {
		return 0, err
	}
	p := append([]byte(nil), f.Data()...) // no pin held down the recursion
	t.bp.Unpin(f, false)

	if btIsLeaf(p) != (level == t.height) {
		return 0, fmt.Errorf("page %d: wrong kind at level %d of %d", pid, level, t.height)
	}
	n, err := btCount(p)
	if err != nil {
		return 0, fmt.Errorf("page %d: %w", pid, err)
	}
	type span struct{ off, end int }
	spans := make([]span, n)
	live := 0
	var prev []byte
	for i := 0; i < n; i++ {
		k, v, err := btCell(p, n, i)
		if err != nil {
			return 0, fmt.Errorf("page %d: %w", pid, err)
		}
		off, _, _, _ := btSlotAt(p, n, i)
		spans[i] = span{off, off + len(k) + len(v)}
		live += len(k) + len(v)
		if len(k) == 0 || (prev != nil && bytes.Compare(prev, k) >= 0) {
			return 0, fmt.Errorf("page %d: slot %d out of order", pid, i)
		}
		if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) {
			return 0, fmt.Errorf("page %d: key %d outside its separators", pid, i)
		}
		prev = k
	}
	if btHdr+n*btSlot+live > PageSize {
		return 0, fmt.Errorf("page %d: %d slots + %d cell bytes overfill the page", pid, n, live)
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].off < spans[b].off })
	for i := 1; i < n; i++ {
		if spans[i].off < spans[i-1].end {
			return 0, fmt.Errorf("page %d: cells at %d and %d overlap", pid, spans[i-1].off, spans[i].off)
		}
	}
	if btIsLeaf(p) {
		*leaves = append(*leaves, pid)
		return int64(n), nil
	}
	var total int64
	for i := 0; i <= n; i++ {
		kid, err := btChild(p, n, i)
		if err != nil {
			return 0, fmt.Errorf("page %d: %w", pid, err)
		}
		clo, chi := lo, hi
		if i > 0 {
			clo, _, _ = btCell(p, n, i-1)
		}
		if i < n {
			chi, _, _ = btCell(p, n, i)
		}
		keys, err := t.checkNode(kid, level+1, clo, chi, leaves)
		if err != nil {
			return 0, err
		}
		total += keys
	}
	return total, nil
}

// pinnedFrames counts the pool's frames that are pinned right now.
func pinnedFrames(bp *BufferPool) int {
	n := 0
	bp.mu.Lock()
	for _, f := range bp.frames {
		if f.pin.Load() > 0 {
			n++
		}
	}
	bp.mu.Unlock()
	return n
}
