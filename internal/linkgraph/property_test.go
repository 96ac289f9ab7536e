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

// TestLinkGraphByDstMergeProperty is the striping-invariance property (in
// the style of the crawler's shard_test.go): for random edge sets and any
// stripe count, the (dst, src)-ordered dump of every stripe must equal the
// Stripes=1 dump tuple for tuple. Striping is a physical layout choice; it
// must never be observable in the stored edges or their weights.
func TestLinkGraphByDstMergeProperty(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		nEdges := rng.Intn(500)
		srcRange := int64(1 + rng.Intn(40))
		dstRange := int64(1 + rng.Intn(60))
		var edges []Edge
		for i := 0; i < nEdges; i++ {
			src := rng.Int63n(2*srcRange) - srcRange // negative oids too
			dst := rng.Int63n(2*dstRange) - dstRange
			edges = append(edges, Edge{
				Src: src, SidSrc: int32(src % 3),
				Dst: dst, SidDst: int32(dst % 3),
				WgtFwd: float64(rng.Intn(100)) / 100,
				WgtRev: float64(rng.Intn(100)) / 100,
			})
		}

		load := func(stripes int) []Edge {
			s := newStore(t, stripes)
			// Split the edge list into several batches, as workers would.
			for lo := 0; lo < len(edges); lo += 50 {
				hi := lo + 50
				if hi > len(edges) {
					hi = len(edges)
				}
				b := &Batch{}
				for _, e := range edges[lo:hi] {
					b.Add(e)
				}
				if _, err := s.Apply(b, nil); err != nil {
					t.Fatal(err)
				}
			}
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

// TestRoutedSweepEquivalenceProperty pins the dst-routing of
// UpdateIncomingFwd at several stripe counts: for random edge sets and a
// random sweep sequence, the routed sweep must (a) leave the store
// tuple-for-tuple identical to the same batches and sweeps applied to a
// one-stripe store, where there is nothing to route (compared through
// byDst, whose order is stripe-count-independent), and (b) lock and probe
// exactly the stripes that store at least one edge into the swept target —
// no more (routing must skip edge-free stripes), no fewer (a skipped stripe
// would strand a stale weight).
func TestRoutedSweepEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		nEdges := 50 + rng.Intn(400)
		srcRange := int64(1 + rng.Intn(50))
		dstRange := int64(1 + rng.Intn(40))
		var edges []Edge
		for i := 0; i < nEdges; i++ {
			src := rng.Int63n(2*srcRange) - srcRange
			dst := rng.Int63n(2*dstRange) - dstRange
			edges = append(edges, Edge{
				Src: src, SidSrc: int32(src % 3),
				Dst: dst, SidDst: int32(dst % 3),
				WgtFwd: float64(rng.Intn(100)) / 100,
				WgtRev: float64(rng.Intn(100)) / 100,
			})
		}
		// Sweep a mix of targets with in-edges and targets without any.
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
					for lo := 0; lo < len(edges); lo += 60 {
						hi := lo + 60
						if hi > len(edges) {
							hi = len(edges)
						}
						b := &Batch{}
						for _, e := range edges[lo:hi] {
							b.Add(e)
						}
						if _, err := s.Apply(b, nil); err != nil {
							t.Fatal(err)
						}
					}
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
						t.Fatalf("tuple %d = %+v after routed sweeps, one-stripe store has %+v", i, got[i], want[i])
					}
				}

				// Probe accounting: the routed store must have probed exactly
				// the stripes holding edges into each swept dst (counting a
				// dst once per sweep of it).
				stripesInto := func(dst int64) int64 {
					seen := map[int]bool{}
					for _, e := range edges {
						if e.Dst == dst {
							seen[int(uint64(e.Src)%uint64(stripes))] = true
						}
					}
					return int64(len(seen))
				}
				var wantProbes int64
				for _, sw := range sweeps {
					wantProbes += stripesInto(sw.dst)
				}
				nSweeps, probes := routed.SweepStats()
				if nSweeps != int64(len(sweeps)) {
					t.Fatalf("routed SweepStats sweeps = %d, ran %d", nSweeps, len(sweeps))
				}
				if probes != wantProbes {
					t.Fatalf("routed sweeps probed %d stripes, edges into swept dsts span %d", probes, wantProbes)
				}
			})
		}
	}
}
