package distiller

import (
	"fmt"
	"math/rand"
	"testing"

	"focus/internal/relstore"
)

// scoreTable builds a HUBS-shaped table holding the given scores with
// oid = position, inserted in a shuffled order so rank logic cannot lean
// on heap order.
func scoreTable(t testing.TB, scores []float64, seed int64) *relstore.Table {
	t.Helper()
	db := relstore.Open(relstore.Options{Frames: 256})
	tb, err := db.CreateTable("SCORES", HubsAuthSchema())
	if err != nil {
		t.Fatal(err)
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(scores))
	for _, i := range order {
		if _, err := tb.Insert(relstore.Tuple{relstore.I64(int64(i)), relstore.F64(scores[i])}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
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
		tb := scoreTable(t, mk(c.n), int64(c.n)*31+int64(c.p*100))
		got, ok, err := Percentile(tb, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("Percentile(n=%d, p=%.2f) reported an empty table", c.n, c.p)
		}
		if got != c.want {
			t.Errorf("Percentile(n=%d, p=%.2f) = %v, want %v", c.n, c.p, got, c.want)
		}
	}

	// The empty table has no percentile at any p: ok must be false, so
	// callers can distinguish "no distillation yet" from a real ψ=0.
	for _, p := range []float64{0, 0.5, 0.9, 1} {
		got, ok, err := Percentile(scoreTable(t, nil, 1), p)
		if err != nil {
			t.Fatal(err)
		}
		if ok || got != 0 {
			t.Errorf("Percentile(empty, p=%.2f) = (%v, %v), want (0, false)", p, got, ok)
		}
	}
}

// TestTopMatchesSortReference checks the bounded-heap selection against the
// straightforward sort-everything reference on random tables, including
// duplicate scores (ties break toward the lower oid) and k beyond n.
func TestTopMatchesSortReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(40)) / 40 // plenty of exact ties
		}
		tb := scoreTable(t, scores, seed)
		for _, k := range []int{1, 3, 10, n, n + 7} {
			got, err := Top(tb, k)
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]Scored, n)
			for i, s := range scores {
				ref[i] = Scored{OID: int64(i), Score: s}
			}
			for i := 1; i < len(ref); i++ { // insertion sort: stable and simple
				for j := i; j > 0 && scoredBetter(ref[j], ref[j-1]); j-- {
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

func BenchmarkTop(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	scores := make([]float64, 20000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	tb := scoreTable(b, scores, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := Top(tb, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(top) != 10 {
			b.Fatal("short result")
		}
	}
}

// tupleRel is a LINK relation held as decoded tuples, the shape a scan of
// the engine's store hands over.
type tupleRel []relstore.Tuple

func (r tupleRel) Scan(fn func(relstore.RID, relstore.Tuple) (bool, error)) error {
	for _, t := range r {
		if stop, err := fn(relstore.RID{}, t); err != nil || stop {
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
func crawlShapedGraph(b *testing.B, nedges int) (Tables, map[int64]float64) {
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
	link := make(tupleRel, nedges)
	for i := range link {
		src, dst := oids[rng.Intn(sources)], oids[relevant+rng.Intn(pages-relevant)]
		if rng.Intn(6) == 0 {
			dst = oids[rng.Intn(relevant)]
		}
		sidSrc, sidDst := int32(src%64), int32(dst%64+64)
		if rng.Intn(20) == 0 {
			sidDst = sidSrc
		}
		link[i] = relstore.Tuple{relstore.I64(src), relstore.I32(sidSrc), relstore.I64(dst), relstore.I32(sidDst),
			relstore.F64(rel[dst]), relstore.F64(rel[src])}
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
