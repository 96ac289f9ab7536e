package crawler

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/relstore"
)

// runFrontierOps drives a frontierSet and a sorted-slice model of it through
// the operation stream ops encodes, and returns the first disagreement. Each
// operation is an opcode byte and two argument bytes:
//
//	0, 6-9 insert a new key         3 pop past the rows a polite walk skips
//	1 re-key an entry (a raise)     4 rebuild under another order
//	2 pop the first entry           5 delete or find an absent key
//
// Keys lie in a small space, so neighbours are common, and inserts outnumber
// removals, so the set grows past a block and splits. It returns the most
// blocks the set held.
func runFrontierOps(ops []byte) (blocks int, err error) {
	s := &frontierSet{}
	var model []frontierEntry
	keyOf := func(a, b byte) frontierKey {
		var k frontierKey
		k[0], k[1], k[frontierKeyWidth-1] = a>>4, b, a
		return k
	}
	at := func(k frontierKey) (int, bool) {
		return slices.BinarySearchFunc(model, k, func(e frontierEntry, k frontierKey) int { return e.key.compare(&k) })
	}
	add := func(k frontierKey, rid relstore.RID) {
		i, _ := at(k)
		model = slices.Insert(model, i, frontierEntry{k, rid})
		s.insert(k, rid)
	}
	remove := func(i int) error {
		k := model[i].key
		model = slices.Delete(model, i, i+1)
		if !s.delete(&k) {
			return fmt.Errorf("delete of %x found nothing", k)
		}
		return nil
	}
	rids := uint16(0)
	for len(ops) >= 3 {
		op, a, b := ops[0]%10, ops[1], ops[2]
		ops = ops[3:]
		switch op {
		case 0, 6, 7, 8, 9:
			k := keyOf(a, b)
			if _, dup := at(k); !dup {
				rids++
				add(k, relstore.RID{Page: relstore.PageID(rids), Slot: rids})
			}
		case 1:
			if len(model) == 0 {
				continue
			}
			i := (int(a)<<8 | int(b)) % len(model)
			to := model[i].key
			to[frontierKeyWidth-1] ^= b | 1
			if _, dup := at(to); dup {
				continue
			}
			rid := model[i].rid
			if err = remove(i); err == nil {
				add(to, rid)
			}
		case 2, 3:
			// The polite walk skips the entries whose rid's slot is a
			// multiple of a; the plain pop (op 2) skips none.
			skip := func(e *frontierEntry) bool { return op == 3 && a > 1 && e.rid.Slot%uint16(a) == 0 }
			want := slices.IndexFunc(model, func(e frontierEntry) bool { return !skip(&e) })
			var got *frontierEntry
			s.walk(func(e *frontierEntry) bool {
				if skip(e) {
					return false
				}
				got = e
				return true
			})
			switch {
			case want < 0 && got != nil:
				err = fmt.Errorf("walk admitted %x, the model admits nothing", got.key)
			case want >= 0 && (got == nil || *got != model[want]):
				err = fmt.Errorf("walk admitted %v, the model admits %x", got, model[want].key)
			case want >= 0:
				err = remove(want)
			}
		case 4:
			// A new order: every key's bytes rotated by a, so the order
			// changes wholesale, and the set is built from scratch.
			entries := make([]frontierEntry, len(model))
			for i, e := range model {
				var k frontierKey
				for j := range k {
					k[j] = e.key[(j+int(a))%frontierKeyWidth]
				}
				entries[i] = frontierEntry{k, e.rid}
			}
			model = slices.Clone(entries)
			slices.SortFunc(model, func(x, y frontierEntry) int { return x.key.compare(&y.key) })
			s = buildFrontierSet(entries)
		case 5:
			k := keyOf(a, b)
			k[2] = 0xFF
			if _, dup := at(k); dup {
				continue
			}
			if s.delete(&k) {
				err = fmt.Errorf("delete of absent %x removed something", k)
			} else if _, ok := s.find(&k); ok {
				err = fmt.Errorf("find of absent %x found something", k)
			}
		}
		if err == nil {
			err = compareFrontierSet(s, model)
		}
		if err != nil {
			return blocks, fmt.Errorf("op %d (%d, %d): %w", op, a, b, err)
		}
		blocks = max(blocks, len(s.blocks))
	}
	return blocks, nil
}

// compareFrontierSet checks s's shape and that it holds exactly model, in
// order, with first agreeing, and find on every sixteenth entry.
func compareFrontierSet(s *frontierSet, model []frontierEntry) error {
	if err := s.check(); err != nil {
		return err
	}
	if s.Len() != len(model) {
		return fmt.Errorf("set holds %d entries, model %d", s.Len(), len(model))
	}
	i := 0
	var err error
	s.walk(func(e *frontierEntry) bool {
		if *e != model[i] {
			err = fmt.Errorf("entry %d is %x at %v, model has %x at %v", i, e.key, e.rid, model[i].key, model[i].rid)
			return true
		}
		if i%16 == 0 {
			if rid, ok := s.find(&e.key); !ok || rid != e.rid {
				err = fmt.Errorf("find of entry %d's key gives %v, %v", i, rid, ok)
				return true
			}
		}
		i++
		return false
	})
	if err != nil {
		return err
	}
	if first, ok := s.first(); ok != (len(model) > 0) || ok && first != model[0] {
		return errors.New("first is not the model's first entry")
	}
	return nil
}

// TestFrontierSetProperty runs random sequences of inserts, re-keys, pops,
// polite-skip pops and rebuilds against a sorted-slice model of the set.
func TestFrontierSetProperty(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		ops := make([]byte, 3*(3000+rng.Intn(1000)))
		rng.Read(ops)
		blocks, err := runFrontierOps(ops)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if blocks < 3 {
			t.Fatalf("trial %d: the set never held more than %d blocks, so no block split twice", trial, blocks)
		}
	}
}

// FuzzFrontierSet is TestFrontierSetProperty from raw bytes.
func FuzzFrontierSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 2, 0, 0})
	f.Add([]byte{0, 9, 9, 0, 8, 8, 1, 0, 1, 3, 2, 0, 4, 5, 0, 5, 1, 1})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 3*1200)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if _, err := runFrontierOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckFrontierSetCatchesDrift: CheckDirectory passes on a freshly
// expanded crawl and fails once a shard's frontier set disagrees with its
// heap in each way the crawl could make it: a raised row still under its old
// key, a frontier row missing from the set, and a visited row left in it.
func TestCheckFrontierSetCatchesDrift(t *testing.T) {
	c, _ := newTestCrawler(t, &stubFetcher{}, Config{Workers: 2})
	src, f := expandPage(0, 0)
	if err := c.expandLinks(src, f, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	url := f.Outlinks[0]
	sh := c.shardFor(SIDOf(url))
	rid, row, ok, err := sh.lookupLocked(OIDOf(url))
	if err != nil || !ok {
		t.Fatalf("lookup: %v, %v", ok, err)
	}
	key := frontierKeyOf(sh.policy, row)
	rewrite := func(col int, v relstore.Value) func() {
		return func() {
			stored, err := sh.crawl.Get(rid)
			if err != nil {
				t.Fatal(err)
			}
			changed := stored.Clone()
			changed[col] = v
			// Heap and directory agree: only the frontier set drifts.
			if err := sh.writeLocked(rid, stored, changed); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, drift := range []struct {
		name        string
		make, after func()
	}{
		{"stale key after a raise", rewrite(CRel, relstore.F64(0.9)), rewrite(CRel, row[CRel])},
		{"missing frontier row", func() {
			sh.front.delete(&key)
			sh.frontierN.Add(-1)
			sh.recomputeHeadLocked()
		}, func() {
			sh.enterLocked(key, rid)
		}},
		{"visited row left in the set", func() {
			rewrite(CStatus, relstore.I32(StatusVisited))()
			sh.frontierN.Add(-1)
		}, func() {
			rewrite(CStatus, row[CStatus])()
			sh.frontierN.Add(1)
		}},
	} {
		drift.make()
		if err := c.CheckDirectory(); err == nil {
			t.Errorf("%s: CheckDirectory passed", drift.name)
		}
		drift.after()
		if err := c.CheckDirectory(); err != nil {
			t.Fatalf("after undoing %s: %v", drift.name, err)
		}
	}
}

// TestCheckoutPoolFetches: with politeness off a checkout reads its row and
// marks it in flight in the oid directory, so it fetches at most one pool
// page whatever the frontier holds — the frontier set is in memory, and the
// heap row is not rewritten. Every checkout's row must be in flight in its
// directory entry and still a frontier row in its heap.
func TestCheckoutPoolFetches(t *testing.T) {
	c, db := warmExpandCrawler(t)
	for i := 0; i < 100; i++ {
		before := db.Pool().Stats()
		sh, rid, row, ok, _, err := c.checkout(i % 2)
		after := db.Pool().Stats()
		if err != nil || !ok {
			t.Fatalf("checkout %d: ok=%v err=%v", i, ok, err)
		}
		if n := (after.Hits + after.Misses) - (before.Hits + before.Misses); n > 1 {
			t.Fatalf("checkout %d fetched %d pool pages, want at most 1", i, n)
		}
		stored, err := sh.crawl.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if d := sh.rids[row[COID].Int()]; int32(d.status) != StatusInflight || int32(stored[CStatus].Int()) != StatusFrontier {
			t.Fatalf("checkout %d: directory status %d, heap status %d", i, d.status, stored[CStatus].Int())
		}
	}
	if err := c.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}
