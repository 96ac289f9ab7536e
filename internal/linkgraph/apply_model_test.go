package linkgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/relstore"
)

// refLink is the per-edge reference model of Apply: one edge at a time, in
// arrival order — look the pair up, skip it when stored, otherwise ask the
// weight function and append to the source's stripe. It is what Apply did
// before it worked in sets, written over maps and slices.
type refLink struct {
	stripes int
	stored  map[[2]int64]bool
	heap    [][]Edge // per stripe, in insertion order
}

func newRefLink(stripes int) *refLink {
	return &refLink{stripes: stripes, stored: map[[2]int64]bool{}, heap: make([][]Edge, stripes)}
}

// apply returns the inserted flags and the edges handed to weight, in order:
// arrival order, the order the callbacks are seen in.
func (m *refLink) apply(edges []Edge, weight func(Edge) float64) (inserted []bool, calls []Edge) {
	inserted = make([]bool, len(edges))
	for i, e := range edges {
		if m.stored[[2]int64{e.Src, e.Dst}] {
			continue
		}
		si := int(uint64(e.Src) % uint64(m.stripes))
		calls = append(calls, e)
		e.WgtFwd = weight(e)
		m.stored[[2]int64{e.Src, e.Dst}] = true
		m.heap[si] = append(m.heap[si], e)
		inserted[i] = true
	}
	return inserted, calls
}

// TestApplyMatchesPerEdgeModel drives Apply and the per-edge model with the
// same random pages — a source's out-links, duplicates inside a page,
// duplicates of edges stored by an earlier page of the same source — at
// stripe counts 1, 2 and 5, and requires: identical inserted flags; the
// weight callback called exactly once per inserted edge, in the model's
// order, under the edge's stripe lock; stored tuples identical in heap order
// stripe by stripe; the out-edge directory reaching exactly the stored rows,
// read back by OutEdgesLocked in ascending dst order; and the directories equal
// to the heaps (CheckDirectory).
func TestApplyMatchesPerEdgeModel(t *testing.T) {
	for _, stripes := range []int{1, 2, 5} {
		for trial := 0; trial < 4; trial++ {
			t.Run(fmt.Sprintf("stripes=%d/trial=%d", stripes, trial), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7000 + 10*stripes + trial)))
				s := newStore(t, stripes)
				model := newRefLink(stripes)
				weightOf := func(e Edge) float64 { return float64((e.Src*131+e.Dst*7)%1000) / 1000 }
				srcRange, dstRange := int64(3+rng.Intn(30)), int64(5+rng.Intn(80))

				for batchNo := 0; batchNo < 40; batchNo++ {
					b := &Batch{}
					// A page's out-links: one source, many targets.
					src := rng.Int63n(2*srcRange) - srcRange
					for i, n := 0, 1+rng.Intn(60); i < n; i++ {
						dst := rng.Int63n(2*dstRange) - dstRange
						b.Add(Edge{
							Src: src, SidSrc: int32(src % 3), Dst: dst, SidDst: int32(dst % 3),
							WgtFwd: float64(batchNo), WgtRev: float64(i) / 64,
						})
					}

					var calls []Edge
					got, err := s.Apply(b, func(e Edge) (float64, error) {
						st := s.stripeFor(e.Src)
						if st.mu.TryLock() {
							st.mu.Unlock()
							t.Errorf("weight callback for %d->%d ran without its stripe lock", e.Src, e.Dst)
						}
						calls = append(calls, e)
						return weightOf(e), nil
					})
					if err != nil {
						t.Fatal(err)
					}
					want, wantCalls := model.apply(b.Edges(), weightOf)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("batch %d edge %d (%d->%d): inserted = %v, model says %v",
								batchNo, i, b.Edges()[i].Src, b.Edges()[i].Dst, got[i], want[i])
						}
					}
					if len(calls) != len(wantCalls) {
						t.Fatalf("batch %d: %d weight callbacks, model made %d", batchNo, len(calls), len(wantCalls))
					}
					for i := range wantCalls {
						if calls[i] != wantCalls[i] {
							t.Fatalf("batch %d: callback %d was for %+v, model's was for %+v", batchNo, i, calls[i], wantCalls[i])
						}
					}
				}

				for si, st := range s.stripes {
					var heap []Edge
					rids := map[relstore.RID]Edge{}
					err := st.tab.Scan(func(rid relstore.RID, tp relstore.Tuple) (bool, error) {
						heap = append(heap, EdgeOf(tp))
						rids[rid] = EdgeOf(tp)
						return false, nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(heap) != len(model.heap[si]) {
						t.Fatalf("stripe %d stores %d tuples, model %d", si, len(heap), len(model.heap[si]))
					}
					for i, want := range model.heap[si] {
						if heap[i] != want {
							t.Fatalf("stripe %d heap position %d = %+v, model has %+v", si, i, heap[i], want)
						}
					}
					// The out-edge directory lists every stored row exactly once,
					// on its source's chain, and OutEdgesLocked reads a
					// source's edges back in ascending dst order.
					seen := map[relstore.RID]bool{}
					for src, at := range st.dir.head {
						for ; at >= 0; at = st.dir.rows[at].next {
							rid := st.dir.rows[at].rid
							if e, ok := rids[rid]; !ok || e.Src != src || seen[rid] {
								t.Fatalf("stripe %d out-edge chain of %d reaches %v: row %+v, in heap %v, seen before %v", si, src, rid, e, ok, seen[rid])
							}
							seen[rid] = true
						}
						var dsts []int64
						for _, e := range outEdges(t, s, src) {
							dsts = append(dsts, e.Dst)
						}
						if !slices.IsSorted(dsts) {
							t.Fatalf("stripe %d: out-edges of %d = %v, not ascending", si, src, dsts)
						}
					}
					if len(seen) != len(heap) {
						t.Fatalf("stripe %d out-edge directory reaches %d rows of %d", si, len(seen), len(heap))
					}
				}
				if err := s.CheckDirectory(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// pageBatch is one page's out-links: n edges from src to pseudo-random
// targets.
func pageBatch(rng *rand.Rand, src int64, n int) *Batch {
	b := &Batch{}
	for i := 0; i < n; i++ {
		dst := rng.Int63()
		b.Add(Edge{Src: src, SidSrc: int32(src % 97), Dst: dst, SidDst: int32(dst % 97), WgtFwd: 0.5, WgtRev: 0.5})
	}
	return b
}

// warmStore returns a store of the given stripe count holding about
// edges edges, 44 per source.
func warmStore(tb testing.TB, stripes, edges int) (*Store, *rand.Rand) {
	tb.Helper()
	db := relstore.Open(relstore.Options{Frames: 4096})
	s, err := New(db, stripes)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	for n := 0; n < edges; n += 44 {
		if _, err := s.Apply(pageBatch(rng, rng.Int63(), 44), nil); err != nil {
			tb.Fatal(err)
		}
	}
	return s, rng
}

// TestApplyPageAllocs guards the allocation count of the ingest path: a
// 44-edge page applied to a warm store encodes its rows and keys into a
// recycled arena, so what is left is a handful of per-call allocations (the
// inserted flags among them), not several per edge. The parent of this guard allocated about 400 times here.
func TestApplyPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s, rng := warmStore(t, 2, 8000)
	weight := func(e Edge) (float64, error) { return e.WgtFwd, nil }
	batches := make([]*Batch, 64)
	for i := range batches {
		batches[i] = pageBatch(rng, rng.Int63(), 44)
	}
	next := 0
	avg := testing.AllocsPerRun(len(batches)-1, func() {
		if _, err := s.Apply(batches[next], weight); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg > 16 {
		t.Fatalf("Apply of a 44-edge page allocates %.1f times, want at most 16", avg)
	}
}

// BenchmarkApplyPage applies 44-edge pages to a two-stripe store warmed with
// 30k edges: the per-visit ingest of the link-heavy workload.
func BenchmarkApplyPage(b *testing.B) {
	s, rng := warmStore(b, 2, 30000)
	weight := func(e Edge) (float64, error) { return e.WgtFwd, nil }
	batches := make([]*Batch, b.N)
	for i := range batches {
		batches[i] = pageBatch(rng, rng.Int63(), 44)
	}
	pool := s.db.Pool()
	before := pool.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range batches {
		if _, err := s.Apply(batch, weight); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := pool.Stats()
	b.ReportMetric(float64((after.Hits+after.Misses)-(before.Hits+before.Misses))/float64(b.N), "fetches/op")
}
