package linkgraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/relstore"
)

// byDst is the store's edge set in global (dst, src) order: every stripe's
// Scan, sorted by EncodeKey(dst, src) — the order one (oid_dst, oid_src)
// index over the whole relation would yield, whatever the stripe count.
func byDst(t testing.TB, s *Store) []Edge {
	t.Helper()
	edges := scanEdges(t, s)
	key := func(e Edge) []byte { return relstore.EncodeKey(relstore.I64(e.Dst), relstore.I64(e.Src)) }
	slices.SortFunc(edges, func(a, b Edge) int { return bytes.Compare(key(a), key(b)) })
	return edges
}

// randomPages draws about n edges as pages of up to ten out-links, sources in
// [-srcRange, srcRange) and destinations in [-dstRange, dstRange) — negative
// oids too. A page may repeat a link, and a source may come back in a later
// page.
func randomPages(rng *rand.Rand, n int, srcRange, dstRange int64) []Edge {
	var edges []Edge
	for len(edges) < n {
		src := rng.Int63n(2*srcRange) - srcRange
		for range 1 + rng.Intn(10) {
			dst := rng.Int63n(2*dstRange) - dstRange
			edges = append(edges, Edge{
				Src: src, SidSrc: int32(src % 3),
				Dst: dst, SidDst: int32(dst % 3),
				WgtFwd: float64(rng.Intn(100)) / 100,
				WgtRev: float64(rng.Intn(100)) / 100,
			})
		}
	}
	return edges
}

// TestLinkGraphByDstMergeProperty is the striping-invariance property (in
// the style of the crawler's shard_test.go): for random edge sets and any
// stripe count, the (dst, src)-ordered dump of every stripe must equal the
// Stripes=1 dump tuple for tuple. Striping is a physical layout choice; it
// must never be observable in the stored edges or their weights.
func TestLinkGraphByDstMergeProperty(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		edges := randomPages(rng, rng.Intn(500), int64(1+rng.Intn(40)), int64(1+rng.Intn(60)))

		load := func(stripes int) []Edge {
			s := newStore(t, stripes)
			applyPages(t, s, edges, nil)
			return byDst(t, s)
		}

		want := load(1)
		for _, stripes := range []int{2, 3, 5, 8, 16} {
			t.Run(fmt.Sprintf("trial=%d/stripes=%d", trial, stripes), func(t *testing.T) {
				got := load(stripes)
				if len(got) != len(want) {
					t.Fatalf("%d tuples, Stripes=1 yields %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("tuple %d = %+v, Stripes=1 order has %+v", i, got[i], want[i])
					}
				}
			})
		}

		// byDst sorts, so ascending is given; strictly ascending means no
		// (src, dst) pair is stored twice.
		var prev []byte
		for _, e := range want {
			key := relstore.EncodeKey(relstore.I64(e.Dst), relstore.I64(e.Src))
			if prev != nil && string(key) <= string(prev) {
				t.Fatalf("(dst, src) order not strictly ascending at %d->%d", e.Src, e.Dst)
			}
			prev = key
		}
	}
}

// TestRoutedSweepEquivalenceProperty pins UpdateIncomingFwd at several
// stripe counts: for random edge sets and a random sequence of logged
// weights — for targets with in-edges and targets without, a target possibly
// more than once — the store must read tuple for tuple what the same batches and
// weights give a one-stripe store (compared through byDst, whose order is
// stripe-count-independent). The name is from when UpdateIncomingFwd
// rewrote LINK, routed to the stripes holding the target's in-edges.
func TestRoutedSweepEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		nEdges, srcRange := 50+rng.Intn(400), int64(1+rng.Intn(50))
		dstRange := int64(1 + rng.Intn(40))
		edges := randomPages(rng, nEdges, srcRange, dstRange)
		// Log weights for a mix of targets with in-edges and targets without any.
		type sweep struct {
			dst int64
			fwd float64
		}
		var sweeps []sweep
		for i := 0; i < 12; i++ {
			sweeps = append(sweeps, sweep{
				dst: rng.Int63n(3*dstRange) - dstRange,
				fwd: 1 + float64(i)/16,
			})
		}

		for _, stripes := range []int{1, 2, 5, 8, 16} {
			t.Run(fmt.Sprintf("trial=%d/stripes=%d", trial, stripes), func(t *testing.T) {
				load := func(stripes int) *Store {
					s := newStore(t, stripes)
					applyPages(t, s, edges, nil)
					for _, sw := range sweeps {
						if err := s.UpdateIncomingFwd(sw.dst, sw.fwd); err != nil {
							t.Fatal(err)
						}
					}
					return s
				}
				routed, single := load(stripes), load(1)

				got, want := byDst(t, routed), byDst(t, single)
				if len(got) != len(want) {
					t.Fatalf("routed store has %d tuples, one-stripe store has %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("tuple %d = %+v with the logged weights, one-stripe store has %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
