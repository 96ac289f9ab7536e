package distiller

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/linkgraph"
	"focus/internal/relstore"
)

// linkWeb grows a LINK relation the way a crawl does: each visit ingests one
// page's out-links into a striped linkgraph store (which dedups them), logs
// the page's relevance as the forward weight of every edge into it, and
// moves the relevance view. Pages have 64-bit oids and a server that is a
// function of the oid, as a URL's host is.
type linkWeb struct {
	rng     *rand.Rand
	store   *linkgraph.Store
	pages   []int64
	servers int64
	rel     map[int64]float64
	visited int
	levels  []float64
}

func newLinkWeb(tb testing.TB, seed int64, pages, stripes int) *linkWeb {
	tb.Helper()
	store, err := linkgraph.New(relstore.Open(relstore.Options{Frames: 4096}), stripes)
	if err != nil {
		tb.Fatal(err)
	}
	w := &linkWeb{rng: rand.New(rand.NewSource(seed)), store: store, servers: 1 + int64(pages)/20,
		rel: map[int64]float64{}, levels: []float64{0, 0.05, 0.1, 0.2, 0.25, 0.5, 0.9, 1}}
	for len(w.pages) < pages {
		oid := int64(w.rng.Uint64())
		w.pages = append(w.pages, oid)
		w.rel[oid] = w.level()
	}
	return w
}

// level draws a relevance, a tenth of them above the default rho, some of
// them exactly at it.
func (w *linkWeb) level() float64 {
	if w.rng.Intn(10) == 0 {
		return w.levels[4+w.rng.Intn(4)]
	}
	return w.levels[w.rng.Intn(4)]
}

func (w *linkWeb) sid(oid int64) int32 { return int32(uint64(oid) % uint64(w.servers)) }

// visit crawls the next n pages: each links to about deg pages, now and
// then to one on its own server or to itself, then its relevance is
// logged. A few other pages' relevance moves, and now and then one is
// logged again or logged before anything links to it.
func (w *linkWeb) visit(tb testing.TB, n, deg int) {
	tb.Helper()
	for ; n > 0; n-- {
		src := w.pages[w.visited%len(w.pages)]
		w.visited++
		var b linkgraph.Batch
		for i := w.rng.Intn(2 * deg); i >= 0; i-- {
			dst := w.pages[w.rng.Intn(len(w.pages))]
			switch w.rng.Intn(20) {
			case 0:
				dst = src
			case 1:
				dst = w.pages[(w.visited+20*w.rng.Intn(5))%len(w.pages)]
			}
			b.Add(linkgraph.Edge{Src: src, SidSrc: w.sid(src), Dst: dst, SidDst: w.sid(dst),
				WgtFwd: w.rel[src], WgtRev: w.rel[src]})
		}
		if _, err := w.store.Apply(&b, nil); err != nil {
			tb.Fatal(err)
		}
		w.rel[src] = w.level()
		if err := w.store.UpdateIncomingFwd(src, w.rel[src]); err != nil {
			tb.Fatal(err)
		}
		if w.rng.Intn(4) == 0 {
			other := w.pages[w.rng.Intn(len(w.pages))]
			w.rel[other] = w.level()
			if w.rng.Intn(2) == 0 {
				if err := w.store.UpdateIncomingFwd(other, w.rel[other]); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
}

func (w *linkWeb) snapshot(tb testing.TB) *linkgraph.Snapshot {
	tb.Helper()
	w.store.LockAll()
	defer w.store.UnlockAll()
	sn, err := w.store.SnapshotLocked()
	if err != nil {
		tb.Fatal(err)
	}
	return sn
}

// extend extends a by sn's tail past prev.
func extend(tb testing.TB, a *Arrangement, sn, prev *linkgraph.Snapshot) {
	tb.Helper()
	tail, err := sn.Since(prev)
	if err == nil {
		err = a.Extend(tail)
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// TestArrangementMatchesFreshBuildProperty: an arrangement kept across
// random LINK-shaped epoch sequences — page visits appending edges, logged
// forward weights, relevance changes — scores each epoch bit for bit as a
// fresh Distill of that epoch's snapshot and as the two-sort plan, under
// all four filter ablations, and its boost targets are the set the
// snapshot's edges give: every cross-server destination of a top hub.
func TestArrangementMatchesFreshBuildProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		for _, cfg := range []Config{{}, {Unweighted: true}, {NoNepotismFilter: true}, {Unweighted: true, NoNepotismFilter: true}} {
			w := newLinkWeb(t, rng.Int63(), 20+rng.Intn(300), 1+rng.Intn(4))
			a := NewArrangement(cfg)
			var prev *linkgraph.Snapshot
			for epoch := 0; epoch < 6; epoch++ {
				w.visit(t, rng.Intn(30), 1+rng.Intn(8))
				sn := w.snapshot(t)
				extend(t, a, sn, prev)
				prev = sn
				name := fmt.Sprintf("trial %d, %+v, epoch %d, %d edges", trial, cfg, epoch, sn.Rows())

				hubs, auth, _ := a.Run(w.rel)
				c := cfg
				c.Relevance = w.rel
				freshHubs, freshAuth, _, err := Distill(Tables{Link: sn}, c)
				if err != nil {
					t.Fatal(err)
				}
				var edges []linkgraph.Edge
				if err := sn.ScanEdges(func(e linkgraph.Edge) (bool, error) {
					edges = append(edges, e)
					return false, nil
				}); err != nil {
					t.Fatal(err)
				}
				oldHubs, oldAuth := oldPlan(edges, w.rel, c)
				sameBits(t, name+": hubs, fresh", hubs, freshHubs)
				sameBits(t, name+": auth, fresh", auth, freshAuth)
				sameBits(t, name+": hubs, old plan", hubs, oldHubs)
				sameBits(t, name+": auth, old plan", auth, oldAuth)

				top := Rank(hubs).Top(1 + len(hubs)/10)
				tops := map[int64]bool{}
				for _, h := range top {
					tops[h.OID] = true
				}
				var want []Page
				for _, e := range edges {
					if tops[e.Src] && e.SidSrc != e.SidDst {
						want = append(want, Page{e.Dst, e.SidDst})
					}
				}
				slices.SortFunc(want, func(x, y Page) int { return cmp.Compare(x.OID, y.OID) })
				want = slices.Compact(want)
				if got := a.Cited(top); !slices.Equal(got, want) {
					t.Fatalf("%s: boost targets %v, the snapshot's %v", name, got, want)
				}
			}
		}
	}
}

// BenchmarkDistillEpochs is eight epochs over a LINK that grows to 100k
// edges, each an Extend by the epoch's tail and a Run, on one arrangement.
// ns/appended-edge is the time over the edges appended; ns/held-edge the
// time over the edges the eight runs held, which is what a rebuild per
// epoch would read.
func BenchmarkDistillEpochs(b *testing.B) {
	const epochs, edges = 8, 100000
	w := newLinkWeb(b, 7, 60000, 2)
	var snaps []*linkgraph.Snapshot
	var held int64
	for e := 1; e <= epochs; e++ {
		for w.store.Rows() < int64(e*edges/epochs) {
			w.visit(b, 1, 17)
		}
		snaps = append(snaps, w.snapshot(b))
		held += snaps[len(snaps)-1].Rows()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewArrangement(Config{})
		var prev *linkgraph.Snapshot
		for _, sn := range snaps {
			extend(b, a, sn, prev)
			prev = sn
			if hubs, _, _ := a.Run(w.rel); len(hubs) == 0 {
				b.Fatal("no hubs")
			}
		}
	}
	perRun := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perRun/float64(snaps[len(snaps)-1].Rows()), "ns/appended-edge")
	b.ReportMetric(perRun/float64(held), "ns/held-edge")
}
