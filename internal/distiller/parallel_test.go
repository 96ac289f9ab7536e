package distiller

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/linkgraph"
	"focus/internal/relstore"
)

// shuffledRanking ranks the given scores with oid = position, handing Rank
// them in a shuffled order so the ranking cannot lean on input order.
func shuffledRanking(scores []float64, seed int64) Ranking {
	s := make([]Scored, 0, len(scores))
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(scores)) {
		s = append(s, Scored{OID: int64(i), Score: scores[i]})
	}
	return Rank(s)
}

// TestPercentileNearestRank pins the nearest-rank rounding: the old
// int(p*(n-1)) floor truncated every fractional rank downward (p=0.5 over
// ten scores picked rank 4, not 5).
func TestPercentileNearestRank(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		// Even length (10): ranks over 0..9.
		{10, 0, 0},
		{10, 0.5, 5}, // round(4.5) = 5; the floored version said 4
		{10, 0.9, 8}, // round(8.1)
		{10, 1.0, 9},
		// Odd length (9): ranks over 0..8.
		{9, 0, 0},
		{9, 0.5, 4}, // exact
		{9, 0.9, 7}, // round(7.2)
		{9, 1.0, 8},
		// Single element: every percentile is the element.
		{1, 0, 0},
		{1, 0.5, 0},
		{1, 1.0, 0},
	}
	for _, c := range cases {
		got, ok := shuffledRanking(mk(c.n), int64(c.n)*31+int64(c.p*100)).Percentile(c.p)
		if !ok {
			t.Errorf("Percentile(n=%d, p=%.2f) reported an empty ranking", c.n, c.p)
		}
		if got != c.want {
			t.Errorf("Percentile(n=%d, p=%.2f) = %v, want %v", c.n, c.p, got, c.want)
		}
	}

	// The empty ranking has no percentile at any p: ok must be false, so
	// callers can distinguish "no distillation yet" from a real ψ=0.
	for _, p := range []float64{0, 0.5, 0.9, 1} {
		got, ok := shuffledRanking(nil, 1).Percentile(p)
		if ok || got != 0 {
			t.Errorf("Percentile(empty, p=%.2f) = (%v, %v), want (0, false)", p, got, ok)
		}
	}
}

// TestTopMatchesSortReference checks a ranking's top-k prefix against a
// straightforward insertion-sort reference on random score sets, including
// duplicate scores (ties break toward the lower oid) and k beyond n.
func TestTopMatchesSortReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(40)) / 40 // plenty of exact ties
		}
		r := shuffledRanking(scores, seed)
		for _, k := range []int{1, 3, 10, n, n + 7} {
			got := r.Top(k)
			ref := make([]Scored, n)
			for i, s := range scores {
				ref[i] = Scored{OID: int64(i), Score: s}
			}
			for i := 1; i < len(ref); i++ { // insertion sort: stable and simple
				for j := i; j > 0 && (ref[j].Score > ref[j-1].Score ||
					ref[j].Score == ref[j-1].Score && ref[j].OID < ref[j-1].OID); j-- {
					ref[j], ref[j-1] = ref[j-1], ref[j]
				}
			}
			if k < n {
				ref = ref[:k]
			}
			if len(got) != len(ref) {
				t.Fatalf("seed %d k=%d: %d rows, want %d", seed, k, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d k=%d row %d: %+v, want %+v", seed, k, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestRankMatchesSortProperty: Rank, a radix sort, orders random score sets
// exactly as a comparison sort by rankOrder does, bit for bit, whether it is
// handed them in random order or in ascending oid order as Run returns
// them, and through its own buffer or an arrangement's. The scores include
// ties, both zeros, subnormals, both infinities and one score many oids
// share; oids are narrow, so that bytes every key shares are skipped, or
// wide. NaN, which rankOrder leaves unordered among NaNs, lands after every
// number, in ascending oid order.
func TestRankMatchesSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1040, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5}
	nans := []float64{math.NaN(), math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000001)}
	a := NewArrangement(Config{})
	for trial := 0; trial < 200; trial++ {
		n, shared := rng.Intn(3000), rng.Float64()
		if trial < 4 {
			n = trial
		}
		oids := map[int64]bool{}
		var s []Scored
		for len(s) < n {
			oid := int64(rng.Uint64())
			if trial%2 == 0 {
				oid = int64(rng.Intn(4*n)) - int64(n)
			}
			if oids[oid] {
				continue
			}
			oids[oid] = true
			var f float64
			switch rng.Intn(5) {
			case 0:
				f = special[rng.Intn(len(special))]
			case 1:
				f = shared
			case 2:
				if f = math.Float64frombits(rng.Uint64()); f != f {
					f = -shared
				}
			default:
				f = rng.Float64() / float64(1+rng.Intn(n))
			}
			s = append(s, Scored{OID: oid, Score: f})
		}
		want := slices.Clone(s)
		slices.SortFunc(want, rankOrder)
		byOID := slices.Clone(s)
		slices.SortFunc(byOID, func(x, y Scored) int { return cmp.Compare(x.OID, y.OID) })
		for _, c := range []struct {
			name string
			got  Ranking
		}{
			{"random order", Rank(slices.Clone(s))},
			{"oid order", Rank(slices.Clone(byOID))},
			{"random order, an arrangement's buffer", a.Rank(slices.Clone(s))},
			{"oid order, an arrangement's buffer", a.Rank(slices.Clone(byOID))},
		} {
			sameRanking(t, fmt.Sprintf("trial %d, %d scores, %s", trial, n, c.name), c.got, want)
		}
	}

	// NaN: after -Inf, in ascending oid order, its bits kept.
	rng = rand.New(rand.NewSource(47))
	var s, numbers, nan []Scored
	for oid := range rng.Perm(200) {
		e := Scored{OID: int64(oid), Score: special[rng.Intn(len(special))]}
		if rng.Intn(3) == 0 {
			e.Score = nans[rng.Intn(len(nans))]
			nan = append(nan, e)
		} else {
			numbers = append(numbers, e)
		}
		s = append(s, e)
	}
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	slices.SortFunc(numbers, rankOrder)
	sameRanking(t, "with NaN", Rank(s), append(numbers, nan...))
}

// sameRanking fails unless got and want hold the same oids and score bits in
// the same order.
func sameRanking(t *testing.T, name string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].OID != want[i].OID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: entry %d is %d:%v (%#x), want %d:%v (%#x)", name, i, got[i].OID, got[i].Score,
				math.Float64bits(got[i].Score), want[i].OID, want[i].Score, math.Float64bits(want[i].Score))
		}
	}
}

// BenchmarkRank times ranking an epoch's worth of scores, the one sort a
// published side costs.
func BenchmarkRank(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	scores := make([]Scored, 20000)
	for i := range scores {
		scores[i] = Scored{OID: int64(i), Score: rng.Float64()}
	}
	work := make([]Scored, len(scores))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, scores)
		if top := Rank(work).Top(10); len(top) != 10 {
			b.Fatal("short result")
		}
	}
}

// edgeRel is a LINK relation held as typed edges, the shape a snapshot of
// the engine's store hands over.
type edgeRel []linkgraph.Edge

func (r edgeRel) ScanEdges(fn func(linkgraph.Edge) (bool, error)) error {
	for _, e := range r {
		if stop, err := fn(e); err != nil || stop {
			return err
		}
	}
	return nil
}

// crawlShapedGraph builds a LINK relation of the given size, and the
// relevance view over its pages, at the shape a standard crawl leaves at its
// last epoch (seed 7: 32.7k edges from 1.9k sources to 13.7k destinations,
// 5.4k of the edges eligible, into 1.4k authorities): ~17 edges a source,
// seven destinations per source, a tenth of the destinations above rho and
// drawing a sixth of the edges, 64-bit oids. The crawl's web has no
// same-server links; a twentieth here keeps that filter in the measurement.
func crawlShapedGraph(b testing.TB, nedges int) (Tables, map[int64]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(nedges)))
	sources := nedges / 17
	pages := 7 * sources
	relevant := pages / 10
	oids := make([]int64, pages)
	rel := make(map[int64]float64, pages)
	for i := range oids {
		oids[i] = int64(rng.Uint64())
		if i < relevant {
			rel[oids[i]] = 0.2 + 0.8*rng.Float64()
		} else {
			rel[oids[i]] = 0.2 * rng.Float64()
		}
	}
	link := make(edgeRel, nedges)
	for i := range link {
		src, dst := oids[rng.Intn(sources)], oids[relevant+rng.Intn(pages-relevant)]
		if rng.Intn(6) == 0 {
			dst = oids[rng.Intn(relevant)]
		}
		sidSrc, sidDst := int32(src%64), int32(dst%64+64)
		if rng.Intn(20) == 0 {
			sidDst = sidSrc
		}
		link[i] = linkgraph.Edge{Src: src, SidSrc: sidSrc, Dst: dst, SidDst: sidDst, WgtFwd: rel[dst], WgtRev: rel[src]}
	}
	db := relstore.Open(relstore.Options{Frames: 1024})
	scoreTable := func(name string) *relstore.Table {
		tab, err := db.CreateTable(name, HubsAuthSchema())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tab.AddIndex("oid", func(tp relstore.Tuple) []byte { return relstore.EncodeKey(tp[0]) }); err != nil {
			b.Fatal(err)
		}
		return tab
	}
	tb := Tables{Link: link, Hubs: scoreTable("HUBS"), Auth: scoreTable("AUTH")}
	return tb, rel
}

// BenchmarkRunJoin is the graph-size sizing point for one distillation
// epoch: the crawl's 25k edges and four times that. ns/edge staying level
// between the two is what says an epoch's cost tracks the graph linearly.
func BenchmarkRunJoin(b *testing.B) {
	for _, nedges := range []int{25000, 100000} {
		b.Run(fmt.Sprintf("edges=%d", nedges), func(b *testing.B) {
			tb, rel := crawlShapedGraph(b, nedges)
			cfg := Config{Relevance: rel}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunJoin(nil, tb, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nedges), "ns/edge")
		})
	}
}
