package relstore

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func pairSchemaForTest() *Schema {
	return NewSchema(
		Column{Name: "oid", Kind: KInt64},
		Column{Name: "score", Kind: KFloat64},
	)
}

func randomPairs(seed int64, n, keySpace int) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{I64(int64(rng.Intn(keySpace))), F64(rng.Float64())}
	}
	return rows
}

// TestConcurrentSortsStress runs many concurrent spilling sorts over one
// deliberately small shared pool: each sort spills through pages it
// allocates privately and the pool itself is thread-safe, so every part must
// come back fully sorted and the union must equal the input, with the pool's
// accounting (exercised under -race) never torn by the concurrent spills.
func TestConcurrentSortsStress(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 32)
	schema := pairSchemaForTest()
	key := KeyOfCols(0)
	rows := randomPairs(7, 20000, 5000)
	const p = 8
	parts := make([][]Tuple, p)
	for i := range parts {
		parts[i] = rows[i*len(rows)/p : (i+1)*len(rows)/p]
	}
	// Tiny workspace forces every part to spill runs through the pool.
	its := make([]Iterator, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			its[i], errs[i] = SortTuples(bp, schema, NewSliceIter(parts[i]), key, 4*PageSize)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var got []Tuple
	for pi, it := range its {
		rowsOut, err := Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(rowsOut); i++ {
			if bytes.Compare(key(rowsOut[i-1]), key(rowsOut[i])) > 0 {
				t.Fatalf("partition %d not sorted at row %d", pi, i)
			}
		}
		if len(rowsOut) != len(parts[pi]) {
			t.Fatalf("partition %d: %d rows out, %d in", pi, len(rowsOut), len(parts[pi]))
		}
		got = append(got, rowsOut...)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d rows out, %d in", len(got), len(rows))
	}
	// The union must be a permutation of the input: compare sorted (oid,
	// score) multisets.
	fp := func(rows []Tuple) [][2]float64 {
		out := make([][2]float64, len(rows))
		for i, r := range rows {
			out[i] = [2]float64{float64(r[0].Int()), r[1].Float()}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i][0] != out[j][0] {
				return out[i][0] < out[j][0]
			}
			return out[i][1] < out[j][1]
		})
		return out
	}
	a, b := fp(got), fp(rows)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("multiset mismatch at %d: %v != %v", i, a[i], b[i])
		}
	}
	if st := bp.Stats(); st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("sorts did not spill through the pool: %+v", st)
	}
}
