package distiller

import (
	"cmp"
	"fmt"
	"iter"
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
// function of the oid, as a URL's host is. The log is the harness's own, as
// the crawler's visit logs are its own: LINK stores no logged weight.
type linkWeb struct {
	rng     *rand.Rand
	store   *linkgraph.Store
	log     []logged
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

// logged is one log entry: the forward weight of every edge into a page.
type logged struct {
	oid int64
	fwd float64
}

// logs yields log's entries as Extend reads them.
func logs(log []logged) iter.Seq2[int64, float64] {
	return func(yield func(int64, float64) bool) {
		for _, l := range log {
			if !yield(l.oid, l.fwd) {
				return
			}
		}
	}
}

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
		w.log = append(w.log, logged{src, w.rel[src]})
		if w.rng.Intn(4) == 0 {
			other := w.pages[w.rng.Intn(len(w.pages))]
			w.rel[other] = w.level()
			if w.rng.Intn(2) == 0 {
				w.log = append(w.log, logged{other, w.rel[other]})
			}
		}
	}
}

// webCut is a snapshot of the web's LINK and its log as they stood. Its
// ScanEdges reads the snapshot with each edge's wgt_fwd resolved against the
// log, a later entry superseding an earlier one: the relation Extend
// arranges.
type webCut struct {
	sn  *linkgraph.Snapshot
	log []logged
}

func (w *linkWeb) snapshot(tb testing.TB) webCut {
	tb.Helper()
	w.store.LockAll()
	defer w.store.UnlockAll()
	sn, err := w.store.SnapshotLocked()
	if err != nil {
		tb.Fatal(err)
	}
	return webCut{sn, w.log[:len(w.log):len(w.log)]}
}

func (c webCut) ScanEdges(fn func(linkgraph.Edge) (bool, error)) error {
	fwd := make(map[int64]float64, len(c.log))
	for _, l := range c.log {
		fwd[l.oid] = l.fwd
	}
	return c.sn.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		if w, ok := fwd[e.Dst]; ok {
			e.WgtFwd = w
		}
		return fn(e)
	})
}

// extend extends a by c's LINK tail and log tail past prev's.
func extend(tb testing.TB, a *Arrangement, c, prev webCut) {
	tb.Helper()
	tail, err := c.sn.Since(prev.sn)
	if err == nil {
		err = a.Extend(tail, logs(c.log[len(prev.log):]))
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
			var prev webCut
			for epoch := 0; epoch < 6; epoch++ {
				w.visit(t, rng.Intn(30), 1+rng.Intn(8))
				sn := w.snapshot(t)
				extend(t, a, sn, prev)
				prev = sn
				name := fmt.Sprintf("trial %d, %+v, epoch %d, %d edges", trial, cfg, epoch, sn.sn.Rows())

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
	var snaps []webCut
	var held int64
	for e := 1; e <= epochs; e++ {
		for w.store.Rows() < int64(e*edges/epochs) {
			w.visit(b, 1, 17)
		}
		snaps = append(snaps, w.snapshot(b))
		held += snaps[len(snaps)-1].sn.Rows()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewArrangement(Config{})
		var prev webCut
		for _, sn := range snaps {
			extend(b, a, sn, prev)
			prev = sn
			if hubs, _, _ := a.Run(w.rel); len(hubs) == 0 {
				b.Fatal("no hubs")
			}
		}
	}
	perRun := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perRun/float64(snaps[len(snaps)-1].sn.Rows()), "ns/appended-edge")
	b.ReportMetric(perRun/float64(held), "ns/held-edge")
}
