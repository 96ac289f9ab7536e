package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type kvPair struct{ k, v []byte }

func treeContents(t *testing.T, tr *BTree) []kvPair {
	t.Helper()
	var out []kvPair
	err := tr.Scan(nil, nil, func(k, v []byte) (bool, error) {
		out = append(out, kvPair{cloneBytes(k), cloneBytes(v)})
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInsertRunMatchesInsertLoop holds BTree.InsertRun to its contract: on
// any sequence of runs it leaves the key -> value contents, Len() and a clean
// check() that a loop of Insert over the same pairs leaves. The shapes cover
// what a run can meet: leaf boundaries, splits and root growth, keys already
// present (shorter, equal and longer replacement values), the tree's right
// edge, cells near MaxCellLen, equal keys inside one run, and runs that do
// not ascend at all. pool = 4x1 is the smallest pool NewBufferPool builds,
// four frames, so nearly every descent misses and evicts.
func TestInsertRunMatchesInsertLoop(t *testing.T) {
	type shape struct {
		name   string
		runs   int
		runLen int
		// key draws the next key of a run; it is sorted into the run unless
		// unsorted is set.
		key      func(rng *rand.Rand, run, i int) []byte
		valLen   func(rng *rand.Rand) int
		unsorted bool
	}
	small := func(rng *rand.Rand) int { return 6 }
	shapes := []shape{
		{name: "random keys cross leaves and split", runs: 40, runLen: 120,
			key:    func(rng *rand.Rand, _, _ int) []byte { return key64(rng.Int63n(1 << 20)) },
			valLen: small},
		{name: "keys already present are replaced", runs: 30, runLen: 80,
			key:    func(rng *rand.Rand, _, _ int) []byte { return key64(rng.Int63n(600)) },
			valLen: func(rng *rand.Rand) int { return rng.Intn(40) }},
		{name: "every run lands at the right edge", runs: 30, runLen: 200,
			key:    func(_ *rand.Rand, run, i int) []byte { return key64(int64(run*1000 + i)) },
			valLen: small},
		{name: "adjacent keys of one prefix", runs: 60, runLen: 44,
			key: func(rng *rand.Rand, run, _ int) []byte {
				return EncodeKey(I64(int64(run*7919%1000)), I64(rng.Int63()))
			},
			valLen: small},
		{name: "cells near MaxCellLen grow the root", runs: 25, runLen: 30,
			key: func(rng *rand.Rand, _, _ int) []byte {
				return append(key64(rng.Int63n(1<<30)), make([]byte, 400+rng.Intn(200))...)
			},
			valLen: func(rng *rand.Rand) int { return 300 + rng.Intn(100) }},
		{name: "runs that do not ascend", runs: 20, runLen: 100, unsorted: true,
			key:    func(rng *rand.Rand, _, _ int) []byte { return key64(rng.Int63n(5000)) },
			valLen: small},
	}
	for _, frames := range []int{64, 4} {
		for si, sh := range shapes {
			t.Run(fmt.Sprintf("pool=%dx1/%s", frames, sh.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(9000 + si)))
				newTree := func() *BTree {
					tr, err := NewBTree(NewBufferPool(NewMemDisk(), frames))
					if err != nil {
						t.Fatal(err)
					}
					return tr
				}
				loop, run := newTree(), newTree()
				for r := 0; r < sh.runs; r++ {
					keys := make([][]byte, sh.runLen)
					for i := range keys {
						keys[i] = sh.key(rng, r, i)
					}
					if !sh.unsorted {
						slices.SortFunc(keys, bytes.Compare)
					}
					vals := make([][]byte, len(keys))
					for i := range vals {
						vals[i] = bytes.Repeat([]byte{byte(r) ^ byte(i)}, sh.valLen(rng))
					}
					for i := range keys {
						if err := loop.Insert(keys[i], vals[i]); err != nil {
							t.Fatal(err)
						}
					}
					if err := run.InsertRun(keys, vals); err != nil {
						t.Fatal(err)
					}
				}
				if err := run.check(); err != nil {
					t.Fatalf("after InsertRun: %v", err)
				}
				if err := loop.check(); err != nil {
					t.Fatalf("after the Insert loop: %v", err)
				}
				if run.Len() != loop.Len() {
					t.Fatalf("Len() = %d after InsertRun, %d after the Insert loop", run.Len(), loop.Len())
				}
				got, want := treeContents(t, run), treeContents(t, loop)
				if len(got) != len(want) {
					t.Fatalf("%d keys after InsertRun, %d after the Insert loop", len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i].k, want[i].k) || !bytes.Equal(got[i].v, want[i].v) {
						t.Fatalf("entry %d: %x -> %x after InsertRun, %x -> %x after the Insert loop",
							i, got[i].k, got[i].v, want[i].k, want[i].v)
					}
				}
				if sh.name == "cells near MaxCellLen grow the root" && run.Height() < 3 {
					t.Fatalf("height %d: the shape was meant to grow the root twice", run.Height())
				}
			})
		}
	}
}

// TestInsertRunSavesDescents pins what a run is for: ascending keys that are
// neighbours in the tree cost one descent per leaf touched, not one per key.
func TestInsertRunSavesDescents(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 256)
	tr, err := NewBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := tr.Insert(EncodeKey(I64(int64(i)), I64(0)), EncodeRID(RID{})); err != nil {
			t.Fatal(err)
		}
	}
	var keys, vals [][]byte
	for j := 1; j <= 44; j++ {
		keys = append(keys, EncodeKey(I64(777), I64(int64(j))))
		vals = append(vals, EncodeRID(RID{Page: PageID(j)}))
	}
	before := bp.Stats()
	if err := tr.InsertRun(keys, vals); err != nil {
		t.Fatal(err)
	}
	after := bp.Stats()
	// One descent is Height() fetches; a split in the middle of the run
	// costs a few more and a second descent. 44 separate inserts cost 44
	// descents.
	if got, limit := (after.Hits+after.Misses)-(before.Hits+before.Misses), int64(6*tr.Height()); got > limit {
		t.Fatalf("a 44-key run of neighbours cost %d pool fetches, more than %d", got, limit)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertRunRejectsBadInput: nothing is inserted when any cell of the run
// is unacceptable, as for Insert.
func TestInsertRunRejectsBadInput(t *testing.T) {
	tr, err := NewBTree(NewBufferPool(NewMemDisk(), 16))
	if err != nil {
		t.Fatal(err)
	}
	good := key64(1)
	for name, run := range map[string][2][][]byte{
		"empty key":       {{good, {}}, {{1}, {2}}},
		"oversized cell":  {{good, key64(2)}, {{1}, make([]byte, MaxCellLen)}},
		"length mismatch": {{good, key64(2)}, {{1}}},
	} {
		if err := tr.InsertRun(run[0], run[1]); err == nil {
			t.Errorf("%s: InsertRun accepted it", name)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("%d keys went in from rejected runs", tr.Len())
	}
}
