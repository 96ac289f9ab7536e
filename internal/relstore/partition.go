package relstore

// Partitioned execution support: one logical sort-merge plan split into P
// independent partitions by a hash of the grouping key, each sorted (and
// spilled, when large) through the shared buffer pool concurrently. The
// classifier's bulk plan is the consumer: every partition runs its own
// sort + merge-join + group-by, and the partial aggregates are disjoint by
// construction, so merging them is pure concatenation.
//
// Concurrency: SortTuples (and the run writers/readers beneath it) spill
// through BufferPool pages that each sort allocates privately, and the pool
// itself is fully thread-safe — including its hit/miss/eviction accounting,
// which is updated under the pool mutex. Concurrent sorts therefore need no
// coordination beyond what the pool already provides; the stress test in
// partition_test.go runs P sorts over one small pool under -race to pin
// exactly that.

// HashTuple returns a non-negative partition number in [0, p) from the
// FNV-1a hash of the tuple's key bytes. The same key always lands in the
// same partition, so hash-partitioned group-bys never split a group.
func HashTuple(key []byte, p int) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(p))
}

// PartitionTuples drains the input into p buckets chosen by part. Buckets
// preserve the input's arrival order within each partition.
func PartitionTuples(in Iterator, p int, part func(Tuple) int) ([][]Tuple, error) {
	if p < 1 {
		p = 1
	}
	out := make([][]Tuple, p)
	for {
		t, ok, err := in.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		i := part(t)
		out[i] = append(out[i], t)
	}
}

// PartitionByKey partitions by HashTuple over keyFn — the hash-partitioned
// group-by building block. Like PartitionTuples, p < 1 means one partition.
func PartitionByKey(in Iterator, p int, keyFn func(Tuple) []byte) ([][]Tuple, error) {
	if p < 1 {
		p = 1
	}
	return PartitionTuples(in, p, func(t Tuple) int { return HashTuple(keyFn(t), p) })
}
