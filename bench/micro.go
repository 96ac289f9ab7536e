package main

import (
	"math/rand"
	"path/filepath"
	"time"

	"focus/internal/relstore"
)

// btreeMicro times the B+tree every relation's indexes are made of, on
// keys drawn from seed: inserts and point reads with the tree resident in
// the pool (hot), and point reads of the same tree on a real file behind a
// 128-frame pool it does not fit in (cold). The numbers do not depend on
// the workload; they are the per-descent cost relstore.pool_fetches_per_visit
// multiplies.
func btreeMicro(seed int64, keys int, dir string, v map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	ks := make([][]byte, keys)
	for i := range ks {
		ks[i] = relstore.EncodeKey(relstore.I64(rng.Int63()))
	}
	val := relstore.EncodeRID(relstore.RID{Page: 1, Slot: 1})
	build := func(db *relstore.DB) (*relstore.BTree, time.Duration, error) {
		bt, err := relstore.NewBTree(db.Pool())
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		for _, k := range ks {
			if err := bt.Insert(k, val); err != nil {
				return nil, 0, err
			}
		}
		return bt, time.Since(t0), nil
	}
	probe := func(bt *relstore.BTree, n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, _, err := bt.Get(ks[rng.Intn(len(ks))]); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}

	hot := relstore.Open(relstore.Options{Frames: 4096})
	bt, ins, err := build(hot)
	if err != nil {
		return err
	}
	get, err := probe(bt, keys)
	if err != nil {
		return err
	}
	v["relstore.btree_insert_ns"] = float64(ins.Nanoseconds()) / float64(keys)
	v["relstore.btree_get_ns_hot"] = float64(get.Nanoseconds()) / float64(keys)

	disk, err := relstore.OpenFileDisk(filepath.Join(dir, "btree-cold.db"))
	if err != nil {
		return err
	}
	cold := relstore.Open(relstore.Options{Disk: disk, Frames: 128})
	defer cold.Close()
	if bt, _, err = build(cold); err != nil {
		return err
	}
	if get, err = probe(bt, keys/4); err != nil {
		return err
	}
	v["relstore.btree_get_ns_cold"] = float64(get.Nanoseconds()) / float64(keys/4)
	return nil
}
