package linkgraph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"focus/internal/relstore"
)

// TestLinkGraphRoutedSweepStress hammers the dst-routed incoming-weight
// sweep with the crawler's exact ordering: 8 workers ingest overlapping
// batches over a small, hot set of destinations (so the same dst keeps
// gaining edges from many stripes) while marking targets "visited" and
// sweeping them concurrently. The visited map plays the CRAWL row: a worker
// marks the dst under the map lock *before* sweeping (as complete() marks
// the row before UpdateIncomingFwd), and the ingest weight callback reads
// the map under the same lock (as edgeWeight reads the row under the shard
// lock). The invariant — no stored edge into a visited dst ever retains a
// stale weight — holds only if the registry registration precedes the
// weight callback inside applyLocked; a registration placed after the
// insert would let a routed sweep miss the stripe of an in-flight stale
// insert, and this test (under -race in CI, twice) is built to catch that.
// The 128-stripe case exercises multi-word registry masks.
func TestLinkGraphRoutedSweepStress(t *testing.T) {
	for _, stripes := range []int{1, 4, 128} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			const (
				workers = 8
				batches = 30
				perBat  = 30
				srcs    = 70
				dsts    = 25 // hot: every dst accumulates many cross-stripe edges
			)
			s := newStore(t, stripes)

			weightOf := func(src, dst int64) float64 {
				return float64((src*31+dst)%97) / 97
			}
			finalOf := func(dst int64) float64 {
				return 2 + float64(dst%11) // disjoint from weightOf's range
			}

			var visited struct {
				sync.Mutex
				m map[int64]float64
			}
			visited.m = make(map[int64]float64)
			weight := func(e Edge) (float64, error) {
				visited.Lock()
				defer visited.Unlock()
				if w, ok := visited.m[e.Dst]; ok {
					return w, nil
				}
				return e.WgtFwd, nil
			}

			var wg sync.WaitGroup
			errs := make(chan error, workers)
			start := make(chan struct{})
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(9000*stripes + w)))
					<-start
					for b := 0; b < batches; b++ {
						batch := &Batch{}
						for i := 0; i < perBat; i++ {
							src, dst := rng.Int63n(srcs), rng.Int63n(dsts)
							batch.Add(Edge{
								Src: src, SidSrc: int32(src % 5),
								Dst: dst, SidDst: int32(dst % 5),
								WgtFwd: weightOf(src, dst), WgtRev: weightOf(dst, src),
							})
						}
						if _, err := s.Apply(batch, weight); err != nil {
							errs <- err
							return
						}
						// Visit a hot dst: mark first, then sweep — the
						// crawler's order. Several workers visiting the same
						// dst write the same deterministic final weight, so
						// the race is harmless by construction, as in the
						// crawler (idempotent sweeps).
						dst := rng.Int63n(dsts)
						visited.Lock()
						visited.m[dst] = finalOf(dst)
						visited.Unlock()
						if err := s.UpdateIncomingFwd(dst, finalOf(dst)); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}

			// Every stored edge into a visited dst carries the final weight —
			// whether its ingest landed before the sweep (rewritten) or after
			// the visit mark (weight callback read the map). Edges into
			// never-visited dsts keep their ingest weight.
			checked := 0
			err := s.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
				edge := EdgeOf(tp)
				if fin, ok := visited.m[edge.Dst]; ok {
					checked++
					if edge.WgtFwd != fin {
						t.Errorf("edge %d->%d wgt_fwd = %v, dst visited with %v (stale weight survived)",
							edge.Src, edge.Dst, edge.WgtFwd, fin)
					}
				} else if edge.WgtFwd != weightOf(edge.Src, edge.Dst) {
					t.Errorf("edge %d->%d wgt_fwd = %v, never swept, want ingest weight %v",
						edge.Src, edge.Dst, edge.WgtFwd, weightOf(edge.Src, edge.Dst))
				}
				return false, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if checked == 0 {
				t.Fatal("no edges into visited dsts — stress exercised nothing")
			}

			// Routing sanity: sweeps ran, and on multi-stripe stores they
			// probed strictly fewer stripes than the legacy
			// every-stripe sweep would have (dsts span at most `dsts` srcs'
			// stripes, and early sweeps see sparse masks).
			sweeps, probes := s.SweepStats()
			if sweeps != workers*batches {
				t.Fatalf("SweepStats sweeps = %d, ran %d", sweeps, workers*batches)
			}
			if stripes > srcs && probes >= sweeps*int64(stripes) {
				t.Fatalf("routed sweeps probed %d stripes over %d sweeps — not routed at %d stripes",
					probes, sweeps, stripes)
			}
		})
	}
}

// TestLinkGraphStressOverlappingIngest drives N workers applying
// overlapping edge batches concurrently — with interleaved incoming-weight
// rewrites and prefix reads, the crawler's exact access mix — and then
// checks the store against a serial oracle: no edge lost, no edge
// duplicated, weights deterministic, ScanBySrc reading back exactly the
// heap's edges, and both directories equal to it (CheckDirectory). Run it under -race;
// the CI concurrency step does, twice.
func TestLinkGraphStressOverlappingIngest(t *testing.T) {
	for _, stripes := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			const (
				workers = 8
				batches = 25
				perBat  = 40
				srcs    = 60 // small ranges force heavy overlap
				dsts    = 80
			)
			s := newStore(t, stripes)

			// Deterministic weight per edge key so the final state is
			// independent of which worker's copy wins the insert race.
			weightOf := func(src, dst int64) float64 {
				return float64((src*31+dst)%97) / 97
			}
			mkEdge := func(src, dst int64) Edge {
				return Edge{
					Src: src, SidSrc: int32(src % 5),
					Dst: dst, SidDst: int32(dst % 5),
					WgtFwd: weightOf(src, dst), WgtRev: weightOf(dst, src),
				}
			}

			// Pre-generate every worker's batches so the oracle can replay
			// them serially.
			all := make([][][]Edge, workers)
			for w := range all {
				rng := rand.New(rand.NewSource(int64(1000*stripes + w)))
				all[w] = make([][]Edge, batches)
				for b := range all[w] {
					for i := 0; i < perBat; i++ {
						all[w][b] = append(all[w][b],
							mkEdge(rng.Int63n(srcs), rng.Int63n(dsts)))
					}
				}
			}

			var wg sync.WaitGroup
			errs := make(chan error, workers)
			start := make(chan struct{})
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					<-start
					for b := 0; b < batches; b++ {
						batch := &Batch{}
						for _, edge := range all[w][b] {
							batch.Add(edge)
						}
						if _, err := s.Apply(batch, nil); err != nil {
							errs <- err
							return
						}
						// The crawler's companion operations, interleaved:
						// a weight rewrite (idempotent: the deterministic
						// weight) and a hub-style prefix read.
						dst := rng.Int63n(dsts)
						if err := s.UpdateIncomingFwd(dst, weightOf(-1, dst)); err != nil {
							errs <- err
							return
						}
						err := s.ScanBySrc(rng.Int63n(srcs), func(Edge) (bool, error) {
							return false, nil
						})
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}

			// Serial oracle: the union of all batches, deduplicated by
			// (src, dst).
			oracle := map[[2]int64]Edge{}
			for _, ws := range all {
				for _, b := range ws {
					for _, edge := range b {
						key := [2]int64{edge.Src, edge.Dst}
						if _, dup := oracle[key]; !dup {
							oracle[key] = edge
						}
					}
				}
			}

			// No lost or duplicated edges.
			got := map[[2]int64]Edge{}
			err := s.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
				edge := EdgeOf(tp)
				key := [2]int64{edge.Src, edge.Dst}
				if _, dup := got[key]; dup {
					t.Errorf("edge %d->%d stored twice", edge.Src, edge.Dst)
				}
				got[key] = edge
				return false, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(oracle) {
				t.Errorf("stored %d distinct edges, oracle has %d", len(got), len(oracle))
			}
			for key, want := range oracle {
				edge, ok := got[key]
				if !ok {
					t.Errorf("edge %d->%d lost", key[0], key[1])
					continue
				}
				// WgtFwd may have been rewritten by UpdateIncomingFwd, but
				// both writers use the same deterministic function of dst
				// — apply-time weight weightOf(src,dst) or rewrite weight
				// weightOf(-1,dst) — so only those two values are legal.
				if edge.WgtFwd != weightOf(key[0], key[1]) && edge.WgtFwd != weightOf(-1, key[1]) {
					t.Errorf("edge %d->%d wgt_fwd = %v, not a value any writer wrote",
						key[0], key[1], edge.WgtFwd)
				}
				if edge.WgtRev != want.WgtRev {
					t.Errorf("edge %d->%d wgt_rev = %v, want %v", key[0], key[1], edge.WgtRev, want.WgtRev)
				}
			}
			if n := s.Rows(); n != int64(len(oracle)) {
				t.Errorf("Rows() = %d, oracle has %d", n, len(oracle))
			}

			// The out-edge directory stays consistent with the heap: over
			// every source, ScanBySrc reads back exactly the stored edge set,
			// each edge once, in ascending dst order. Both directories are
			// checked against the heap by CheckDirectory.
			bySrc := map[[2]int64]bool{}
			for src := int64(0); src < srcs; src++ {
				prev := int64(-1)
				err := s.ScanBySrc(src, func(edge Edge) (bool, error) {
					key := [2]int64{edge.Src, edge.Dst}
					if edge.Src != src || edge.Dst <= prev || bySrc[key] {
						t.Errorf("ScanBySrc(%d) read %d->%d after dst %d", src, edge.Src, edge.Dst, prev)
					}
					if _, ok := got[key]; !ok {
						t.Errorf("ScanBySrc(%d) read %d->%d, which the heap does not hold", src, edge.Src, edge.Dst)
					}
					bySrc[key], prev = true, edge.Dst
					return false, nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(bySrc) != len(got) {
				t.Errorf("ScanBySrc read %d edges, the heap holds %d", len(bySrc), len(got))
			}
			if err := s.CheckDirectory(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
