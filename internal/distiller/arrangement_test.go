package distiller

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"focus/internal/linkgraph"
	"focus/internal/relstore"
)

// linkWeb grows a LINK relation the way a crawl does: each visit ingests one
// page's out-links into a striped linkgraph store (which dedups them) and
// moves the page's relevance, which from then on is the forward weight of
// every edge into it. Pages have 64-bit oids and a server that is a function
// of the oid, as a URL's host is. Every relevance write is logged as a
// Change, the first of each page's before any epoch, as the crawler's first
// cut seeds its arrangement; the log is the harness's own, as the crawler's
// change logs are its own: LINK stores no relevance.
type linkWeb struct {
	rng     *rand.Rand
	store   *linkgraph.Store
	log     []Change
	pages   []int64
	servers int64
	rel     map[int64]float64
	done    map[int64]bool // visited
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
		rel: map[int64]float64{}, done: map[int64]bool{}, levels: []float64{0, 0.05, 0.1, 0.2, 0.25, 0.5, 0.9, 1}}
	for len(w.pages) < pages {
		oid := int64(w.rng.Uint64())
		w.pages = append(w.pages, oid)
		w.setRel(oid)
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

// setRel draws a new relevance for oid and logs it.
func (w *linkWeb) setRel(oid int64) {
	w.rel[oid] = w.level()
	w.log = append(w.log, Change{oid, w.rel[oid], w.done[oid]})
}

func (w *linkWeb) sid(oid int64) int32 { return int32(uint64(oid) % uint64(w.servers)) }

// logs splits log into k logs by page, as the crawler's shards keep theirs.
func logs(log []Change, k int) [][]Change {
	out := make([][]Change, k)
	for _, ch := range log {
		i := uint64(ch.OID) % uint64(k)
		out[i] = append(out[i], ch)
	}
	return out
}

// visit crawls the next n pages: each links to about deg pages, now and
// then to one on its own server or to itself, then its relevance moves. A
// few other pages' relevance moves too, a visited one's as a revisit would.
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
		w.done[src] = true
		w.setRel(src)
		if w.rng.Intn(4) == 0 {
			w.setRel(w.pages[w.rng.Intn(len(w.pages))])
		}
	}
}

// webCut is a snapshot of the web's LINK and its log as they stood. Its
// ScanEdges reads the snapshot with each edge into a visited page weighing
// that page's latest relevance forward: the relation Extend arranges.
type webCut struct {
	sn  *linkgraph.Snapshot
	log []Change
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
	for _, ch := range c.log {
		if ch.Visited {
			fwd[ch.OID] = ch.Rel
		}
	}
	return c.sn.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		if w, ok := fwd[e.Dst]; ok {
			e.WgtFwd = w
		}
		return fn(e)
	})
}

// extend extends a by c's LINK tail and log tail past prev's, the log in
// three.
func extend(tb testing.TB, a *Arrangement, c, prev webCut) {
	tb.Helper()
	tail, err := c.sn.Since(prev.sn)
	if err == nil {
		err = a.Extend(tail, logs(c.log[len(prev.log):], 3), 1)
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// TestArrangementMatchesFreshBuildProperty: an arrangement kept across
// random LINK-shaped epoch sequences — page visits appending edges,
// relevance changes, visited and not — scores each epoch bit for bit as a
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

				hubs, auth, _ := a.Run()
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

// runEpoch runs on a, once extended, what the crawler's distillation epoch
// runs: a Run, both sides ranked, and the boost targets of the hubs above
// the 90th percentile score, as the crawler's top decile.
func runEpoch(a *Arrangement) (hubs, auth Ranking, cited []Page) {
	h, au, _ := a.Run()
	hubs, auth = a.Rank(h), a.Rank(au)
	if psi, ok := hubs.Percentile(0.9); ok && psi > 0 {
		cited = a.Cited(hubs.Above(psi))
	}
	return hubs, auth, cited
}

// TestArrangementEpochAllocs: once warmed up, an epoch whose tail fits the
// arrangement's kept arrays — an Extend and everything runEpoch does —
// allocates the two sides Run publishes and a small constant more, however
// many edges the arrangement holds. The first small epoch after the large
// ones may find an array full and reallocate it, with room for the rest.
// While the held edges grow fast, a warmed Run allocates only what it
// returns.
func TestArrangementEpochAllocs(t *testing.T) {
	w := newLinkWeb(t, 46, 4000, 2)
	a := NewArrangement(Config{})
	var prev webCut
	for epoch := 0; epoch < 12; epoch++ {
		visits := 300
		if epoch >= 8 {
			visits = 10
		}
		w.visit(t, visits, 8)
		sn := w.snapshot(t)
		tail, err := sn.sn.Since(prev.sn)
		if err != nil {
			t.Fatal(err)
		}
		log := logs(sn.log[len(prev.log):], 2)
		prev = sn
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := a.Extend(tail, log, 1); err != nil {
			t.Fatal(err)
		}
		hubs, auth, cited := runEpoch(a)
		runtime.ReadMemStats(&after)
		if epoch < 9 {
			continue
		}
		// 16 B a scored page; the slack covers closures and each side's
		// rounding to a size class.
		const slack = 4 << 10
		published := uint64(16 * (len(hubs) + len(auth)))
		if got := after.TotalAlloc - before.TotalAlloc; got > published+slack {
			t.Errorf("epoch %d (%d edges held, %d hubs, %d authorities, %d cited) allocated %d B, want at most the %d B published and %d",
				epoch, len(a.edges), len(hubs), len(auth), len(cited), got, published, slack)
		}
	}

	// A crawl's first epochs, as standard's three: equal tails, so the held
	// edges double and then grow by half. A Run after the first, its
	// layout sized by that epoch's growth, allocates only the two sides it
	// returns.
	w = newLinkWeb(t, 48, 20000, 2)
	a, prev = NewArrangement(Config{}), webCut{}
	for epoch, held := 0, 0; epoch < 3; epoch++ {
		w.visit(t, 300, 8)
		sn := w.snapshot(t)
		extend(t, a, sn, prev)
		prev = sn
		if epoch > 0 && 4*len(a.edges) <= 5*held {
			t.Fatalf("epoch %d: the held edges grew from %d to %d, not by more than a quarter", epoch, held, len(a.edges))
		}
		held = len(a.edges)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hubs, auth, _ := a.Run()
		runtime.ReadMemStats(&after)
		const slack = 4 << 10
		published := uint64(16 * (len(hubs) + len(auth)))
		if got := after.TotalAlloc - before.TotalAlloc; epoch > 0 && got > published+slack {
			t.Errorf("growing epoch %d (%d edges held, %d hubs, %d authorities): Run allocated %d B, want at most the %d B it returns and %d",
				epoch, held, len(hubs), len(auth), got, published, slack)
		}
	}
}

// TestArrangementCatchUp: an Extend whose tail spans several epochs, as a
// resumed crawl's first, which reads all of LINK, leaves room for two
// epochs' shares of it rather than for two more such tails, and keeps none
// of its tail's scratch; the epochs after it score as a fresh Distill does.
func TestArrangementCatchUp(t *testing.T) {
	const epochs = 8
	w := newLinkWeb(t, 47, 2000, 2)
	w.visit(t, 400, 8)
	prev := w.snapshot(t)
	a := NewArrangement(Config{})
	tail, err := prev.sn.Since(nil)
	if err == nil {
		err = a.Extend(tail, logs(prev.log, 2), epochs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.edges); cap(a.edges) > n+2*n/epochs+n/4 || a.plan != nil || a.keys != nil {
		t.Fatalf("%d edges held in room for %d; tail scratch kept: %v", n, cap(a.edges), a.plan != nil || a.keys != nil)
	}
	for epoch := 0; epoch < 2; epoch++ {
		w.visit(t, 50, 8)
		sn := w.snapshot(t)
		extend(t, a, sn, prev)
		prev = sn
		hubs, auth, _ := a.Run()
		freshHubs, freshAuth, _, err := Distill(Tables{Link: sn}, Config{Relevance: w.rel})
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("epoch %d: hubs", epoch), hubs, freshHubs)
		sameBits(t, fmt.Sprintf("epoch %d: auth", epoch), auth, freshAuth)
	}
}

// BenchmarkDistillEpochs is eight epochs over a LINK that grows to 100k
// edges on one arrangement, each what the crawler's epoch computes: an
// Extend by the epoch's tail, a Run, both sides ranked and the top decile's
// boost targets. ns/appended-edge is the time over the edges appended;
// ns/held-edge the time over the edges the eight runs held, which is what a
// rebuild per epoch would read.
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
			if hubs, _, _ := runEpoch(a); len(hubs) == 0 {
				b.Fatal("no hubs")
			}
		}
	}
	perRun := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perRun/float64(snaps[len(snaps)-1].sn.Rows()), "ns/appended-edge")
	b.ReportMetric(perRun/float64(held), "ns/held-edge")
}
