package crawler

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"focus/internal/relstore"
)

// frontierKeyWidth is the widest policy key the frontier set holds once the
// status prefix is dropped: the aggressive order's 24 bytes (FIFO's are 16).
// TestPolicyKeysFitFrontierSet holds both orders to it.
const frontierKeyWidth = 24

// frontierKey is a policy key without its status prefix, zero-padded to the
// set's width. Both policies encode fixed-width keys, so padding keeps their
// order.
type frontierKey [frontierKeyWidth]byte

func (k *frontierKey) compare(o *frontierKey) int { return bytes.Compare(k[:], o[:]) }

// frontierPrefix is the status prefix every frontier row's key carries.
var frontierPrefix = relstore.EncodeKey(relstore.I32(StatusFrontier))

// frontierKeyOf encodes row's key under p for the frontier set. The row must
// be in the frontier: its key leads with StatusFrontier, which is dropped.
func frontierKeyOf(p Policy, row relstore.Tuple) (k frontierKey) {
	copy(k[:], p.Key(row)[len(frontierPrefix):])
	return k
}

// frontierEntry is one frontier row: its key and where the row lies.
type frontierEntry struct {
	key frontierKey
	rid relstore.RID
}

// frontierBlock is the most entries one block of a frontierSet holds.
const frontierBlock = 256

// frontierSet is a shard's checkout order: the StatusFrontier rows of its
// CRAWL partition, ascending by policy key. It is sorted blocks of at most
// frontierBlock entries, each block ascending and every key of a block below
// every key of the next. An entry holds no pointer, so the garbage collector
// sees one object per block, and an insert or delete moves at most a block's
// entries. Guarded by the shard mutex.
type frontierSet struct {
	blocks [][]frontierEntry
	n      int
}

// Len is the number of entries.
func (s *frontierSet) Len() int { return s.n }

// locate returns the block k belongs in and its position there: the first
// block whose last key is not below k (the last block when there is none),
// and the first position in it whose key is not below k.
func (s *frontierSet) locate(k *frontierKey) (b, i int) {
	if len(s.blocks) == 0 {
		return 0, 0
	}
	b = sort.Search(len(s.blocks), func(j int) bool {
		blk := s.blocks[j]
		return blk[len(blk)-1].key.compare(k) >= 0
	})
	if b == len(s.blocks) {
		b--
	}
	blk := s.blocks[b]
	i = sort.Search(len(blk), func(j int) bool { return blk[j].key.compare(k) >= 0 })
	return b, i
}

// insert adds the entry (k, rid); k must not be in the set.
func (s *frontierSet) insert(k frontierKey, rid relstore.RID) {
	s.n++
	if len(s.blocks) == 0 {
		s.blocks = append(s.blocks, append(make([]frontierEntry, 0, frontierBlock), frontierEntry{k, rid}))
		return
	}
	b, i := s.locate(&k)
	if len(s.blocks[b]) == frontierBlock {
		// Split the full block in halves; the entry goes into one.
		half := frontierBlock / 2
		upper := make([]frontierEntry, frontierBlock-half, frontierBlock)
		copy(upper, s.blocks[b][half:])
		s.blocks[b] = s.blocks[b][:half]
		s.blocks = slices.Insert(s.blocks, b+1, upper)
		if i > half {
			b, i = b+1, i-half
		}
	}
	s.blocks[b] = slices.Insert(s.blocks[b], i, frontierEntry{k, rid})
}

// delete removes the entry under k and reports whether there was one.
func (s *frontierSet) delete(k *frontierKey) bool {
	b, i := s.locate(k)
	if b >= len(s.blocks) || i >= len(s.blocks[b]) || s.blocks[b][i].key != *k {
		return false
	}
	s.blocks[b] = slices.Delete(s.blocks[b], i, i+1)
	if len(s.blocks[b]) == 0 {
		s.blocks = slices.Delete(s.blocks, b, b+1)
	}
	s.n--
	return true
}

// find returns the RID stored under k.
func (s *frontierSet) find(k *frontierKey) (relstore.RID, bool) {
	b, i := s.locate(k)
	if b >= len(s.blocks) || i >= len(s.blocks[b]) || s.blocks[b][i].key != *k {
		return relstore.RID{}, false
	}
	return s.blocks[b][i].rid, true
}

// first returns the smallest entry.
func (s *frontierSet) first() (frontierEntry, bool) {
	if s.n == 0 {
		return frontierEntry{}, false
	}
	return s.blocks[0][0], true
}

// walk visits the entries in ascending key order until fn returns true. fn
// must not modify the set.
func (s *frontierSet) walk(fn func(e *frontierEntry) bool) {
	for _, blk := range s.blocks {
		for i := range blk {
			if fn(&blk[i]) {
				return
			}
		}
	}
}

// buildFrontierSet makes a set of entries, which it sorts; their keys must
// be distinct.
func buildFrontierSet(entries []frontierEntry) *frontierSet {
	slices.SortFunc(entries, func(a, b frontierEntry) int { return a.key.compare(&b.key) })
	s := &frontierSet{n: len(entries)}
	for len(entries) > 0 {
		blk := make([]frontierEntry, min(len(entries), frontierBlock), frontierBlock)
		entries = entries[copy(blk, entries):]
		s.blocks = append(s.blocks, blk)
	}
	return s
}

// check verifies the set's shape: no empty block, no block over
// frontierBlock, keys strictly ascending across all blocks, and n the entry
// count.
func (s *frontierSet) check() error {
	n := 0
	var prev *frontierKey
	for b, blk := range s.blocks {
		if len(blk) == 0 || len(blk) > frontierBlock {
			return fmt.Errorf("block %d holds %d entries", b, len(blk))
		}
		for i := range blk {
			if prev != nil && prev.compare(&blk[i].key) >= 0 {
				return fmt.Errorf("keys do not ascend at block %d entry %d", b, i)
			}
			prev = &blk[i].key
		}
		n += len(blk)
	}
	if n != s.n {
		return fmt.Errorf("%d entries, the count says %d", n, s.n)
	}
	return nil
}
