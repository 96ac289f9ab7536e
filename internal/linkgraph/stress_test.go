package linkgraph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestLinkGraphRoutedSweepStress hammers ingest with the access mix of the
// benchmark's replay: 8 workers ingest overlapping pages over a small, hot
// set of destinations (so the same dst keeps gaining edges from many
// stripes) while marking targets "visited" and taking snapshots
// concurrently. Half the workers ingest with a weight callback that reads
// the visited map (the replay does), half with none (the crawler). Each
// callback records the weight it stores; every read of an edge — of the
// live store and of every snapshot — must carry exactly the weight ingest
// stored, the recorded one or else the edge's own, and a snapshot must read
// as many edges as it cut. The name is from when a visit rewrote the
// forward weights in LINK through a routed sweep; the 128-stripe case
// remains.
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

			finalOf := func(dst int64) float64 {
				return 2 + float64(dst%11) // disjoint from stressWeight's range
			}

			var visited struct {
				sync.Mutex
				m map[int64]float64
			}
			visited.m = make(map[int64]float64)
			// stored records what the callback stored for an edge. It runs
			// under the edge's stripe lock, before the insert, so a read
			// that meets the edge finds its entry.
			var stored struct {
				sync.Mutex
				m map[[2]int64]float64
			}
			stored.m = make(map[[2]int64]float64)
			visitedWeight := func(e Edge) (float64, error) {
				visited.Lock()
				w, ok := visited.m[e.Dst]
				visited.Unlock()
				if !ok {
					w = e.WgtFwd
				}
				stored.Lock()
				stored.m[[2]int64{e.Src, e.Dst}] = w
				stored.Unlock()
				return w, nil
			}
			check := func(rel interface {
				ScanEdges(func(Edge) (bool, error)) error
			}) (n int64, err error) {
				err = rel.ScanEdges(func(edge Edge) (bool, error) {
					n++
					stored.Lock()
					want, ok := stored.m[[2]int64{edge.Src, edge.Dst}]
					stored.Unlock()
					if !ok {
						want = stressWeight(edge.Src, edge.Dst)
					}
					if edge.WgtFwd != want {
						return true, fmt.Errorf("edge %d->%d wgt_fwd = %v, ingest stored %v", edge.Src, edge.Dst, edge.WgtFwd, want)
					}
					return false, nil
				})
				return n, err
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
					var weight WeightFunc
					if w%2 == 1 {
						weight = visitedWeight
					}
					<-start
					for b := 0; b < batches; b++ {
						batch, src := &Batch{}, rng.Int63n(srcs)
						for i := 0; i < perBat; i++ {
							dst := rng.Int63n(dsts)
							batch.Add(Edge{
								Src: src, SidSrc: int32(src % 5),
								Dst: dst, SidDst: int32(dst % 5),
								WgtFwd: stressWeight(src, dst), WgtRev: stressWeight(dst, src),
							})
						}
						if _, err := s.Apply(batch, weight); err != nil {
							errs <- err
							return
						}
						// Visit a hot dst. Several workers visiting the same
						// dst mark the same deterministic final weight.
						dst := rng.Int63n(dsts)
						visited.Lock()
						visited.m[dst] = finalOf(dst)
						visited.Unlock()
						// Every few batches, cut a snapshot: the barrier in
						// miniature.
						if b%5 == 0 {
							s.LockAll()
							sn, err := s.SnapshotLocked()
							s.UnlockAll()
							var n int64
							if err == nil {
								n, err = check(sn)
							}
							if err == nil && n != sn.Rows() {
								err = fmt.Errorf("snapshot read %d edges, it cut %d", n, sn.Rows())
							}
							if err != nil {
								errs <- err
								return
							}
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

			if _, err := check(s); err != nil {
				t.Fatal(err)
			}
			final := 0
			for _, w := range stored.m {
				if w >= 2 {
					final++
				}
			}
			if final == 0 {
				t.Fatal("no edge was stored with a visited weight — stress exercised nothing")
			}
		})
	}
}

// stressWeight is the stress tests' ingest weight of an edge, deterministic
// so the final state is independent of which worker's copy wins the insert
// race.
func stressWeight(src, dst int64) float64 {
	return float64((src*31+dst)%97) / 97
}

// TestLinkGraphStressOverlappingIngest drives N workers applying
// overlapping pages of out-links concurrently — with interleaved prefix
// reads, the crawler's exact access mix — and then checks the store against
// a serial oracle: no edge lost, no edge duplicated, weights as stored, OutEdgesLocked reading back exactly
// the heap's edges, and the directories equal to it (CheckDirectory). Run it under -race;
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

			// Pre-generate every worker's pages so the oracle can replay
			// them serially. A source comes back in many workers' pages.
			all := make([][][]Edge, workers)
			for w := range all {
				rng := rand.New(rand.NewSource(int64(1000*stripes + w)))
				all[w] = make([][]Edge, batches)
				for b := range all[w] {
					src := rng.Int63n(srcs)
					for i := 0; i < perBat; i++ {
						all[w][b] = append(all[w][b], mkEdge(src, rng.Int63n(dsts)))
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
						// The crawler's companion operation, interleaved: a
						// hub-style prefix read.
						s.LockAll()
						err := s.OutEdgesLocked(rng.Int63n(srcs), func(int64, int32, int32) (bool, error) {
							return false, nil
						})
						s.UnlockAll()
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
			for _, edge := range scanEdges(t, s) {
				key := [2]int64{edge.Src, edge.Dst}
				if _, dup := got[key]; dup {
					t.Errorf("edge %d->%d stored twice", edge.Src, edge.Dst)
				}
				got[key] = edge
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
				if edge.WgtFwd != want.WgtFwd {
					t.Errorf("edge %d->%d wgt_fwd = %v, want %v", key[0], key[1], edge.WgtFwd, want.WgtFwd)
				}
				if edge.WgtRev != want.WgtRev {
					t.Errorf("edge %d->%d wgt_rev = %v, want %v", key[0], key[1], edge.WgtRev, want.WgtRev)
				}
			}
			if n := s.Rows(); n != int64(len(oracle)) {
				t.Errorf("Rows() = %d, oracle has %d", n, len(oracle))
			}

			// The out-edge directory stays consistent with the heap: over
			// every source, OutEdgesLocked reads back exactly the stored edge
			// set, each edge once, in ascending dst order, with its server
			// ids. The directories are checked against the heap by
			// CheckDirectory.
			bySrc := map[[2]int64]bool{}
			for src := int64(0); src < srcs; src++ {
				prev := int64(-1)
				for _, edge := range outEdges(t, s, src) {
					key := [2]int64{edge.Src, edge.Dst}
					if edge.Dst <= prev || bySrc[key] {
						t.Errorf("out-edges of %d read %d->%d after dst %d", src, edge.Src, edge.Dst, prev)
					}
					if stored, ok := got[key]; !ok {
						t.Errorf("out-edges of %d read %d->%d, which the heap does not hold", src, edge.Src, edge.Dst)
					} else if edge.SidSrc != stored.SidSrc || edge.SidDst != stored.SidDst {
						t.Errorf("out-edges of %d read %d->%d with server ids %d->%d, the heap holds %d->%d",
							src, edge.Src, edge.Dst, edge.SidSrc, edge.SidDst, stored.SidSrc, stored.SidDst)
					}
					bySrc[key], prev = true, edge.Dst
				}
			}
			if len(bySrc) != len(got) {
				t.Errorf("OutEdgesLocked read %d edges, the heap holds %d", len(bySrc), len(got))
			}
			if err := s.CheckDirectory(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
