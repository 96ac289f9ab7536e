package webgraph

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"focus/internal/textproc"
)

// backgroundVocabs builds the vocabularies of the default web (1 500
// background words) and the doc-heavy one (20 000); NewWeb builds no pages.
func backgroundVocabs(t testing.TB) []*vocabulary {
	t.Helper()
	var out []*vocabulary
	for _, size := range []int{0, 20000} {
		w, err := NewWeb(Config{Seed: 1, BackgroundVocab: size})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w.vocab)
	}
	return out
}

// searchIndex is the draw backgroundIndex must reproduce: a binary search
// over the cumulative weights, clamped to the last word.
func searchIndex(v *vocabulary, u float64) int {
	return min(sort.SearchFloat64s(v.bgCum, u), len(v.bgCum)-1)
}

// TestBackgroundPickMatchesSearch holds the guide-table draw to the binary
// search it replaced, so no page's tokens move: at every cumulative weight
// and the floats on either side of it, at every guide boundary j/m and its
// neighbours, at 0 and the largest float below 1, and at random draws.
func TestBackgroundPickMatchesSearch(t *testing.T) {
	for _, v := range backgroundVocabs(t) {
		m := float64(len(v.bgCum))
		if v.bgCum[len(v.bgCum)-1] != 1 {
			t.Fatalf("%d words: cumulative weights end at %v, want 1", len(v.bgCum), v.bgCum[len(v.bgCum)-1])
		}
		var us []float64
		for _, c := range v.bgCum {
			us = append(us, math.Nextafter(c, 0), c, math.Nextafter(c, 2))
		}
		for j := range len(v.bgCum) + 1 {
			b := float64(j) / m
			us = append(us, math.Nextafter(b, 0), b, math.Nextafter(b, 2))
		}
		rng := rand.New(rand.NewSource(7))
		for range 200000 {
			us = append(us, rng.Float64())
		}
		us = append(us, 0, math.Nextafter(1, 0))
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := v.backgroundIndex(u), searchIndex(v, u); got != want {
				t.Fatalf("%d words, u %v: guide gives %d, search %d", len(v.bgCum), u, got, want)
			}
		}
	}
}

// FuzzBackgroundPick holds the guide-table draw to the binary search for any
// u in [0, 1) that rand.Float64 can return: 53 of the input's bits.
func FuzzBackgroundPick(f *testing.F) {
	for _, bits := range []uint64{0, 1, 1 << 11, math.MaxUint64, 0x5851F42D4C957F2D, 1 << 63} {
		f.Add(bits)
	}
	vocabs := backgroundVocabs(f)
	f.Fuzz(func(t *testing.T, bits uint64) {
		u := float64(bits>>11) / (1 << 53)
		for _, v := range vocabs {
			if got, want := v.backgroundIndex(u), searchIndex(v, u); got != want {
				t.Fatalf("%d words, u %v: guide gives %d, search %d", len(v.bgCum), u, got, want)
			}
		}
	})
}

// TestExampleDocsAreTokenVectors pins the training input on a doc-heavy web:
// document i of topic c is textproc.VectorOfTokens of the token stream that
// math/rand seeded with the document's seed generates, allocated at its
// length. ExampleDocs allocates its result, one token buffer and each
// document's vector, and no token list a document.
func TestExampleDocsAreTokenVectors(t *testing.T) {
	w, err := NewWeb(Config{Seed: 7, DocLenMean: 2400, BackgroundVocab: 20000, TopicVocab: 240})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for _, name := range []string{"cycling", "hiv"} {
		c := w.Cfg.Tree.ByName(name).ID
		docs := w.ExampleDocs(c, n)
		if len(docs) != n {
			t.Fatalf("%s: %d documents, want %d", name, len(docs), n)
		}
		for i, got := range docs {
			p := &Page{Topic: c, seed: w.Cfg.Seed ^ -(int64(c)*1000003 + int64(i) + 7)}
			want := textproc.VectorOfTokens(w.tokensOf(p, rand.New(rand.NewSource(p.seed)), nil))
			if !slices.Equal(got, want) {
				t.Fatalf("%s document %d: vector differs from its token stream's", name, i)
			}
			if cap(got) != len(got) {
				t.Errorf("%s document %d: cap %d, len %d", name, i, cap(got), len(got))
			}
		}
	}
	if raceEnabled {
		return
	}
	c := w.Cfg.Tree.ByName("cycling").ID
	if a := testing.AllocsPerRun(5, func() { w.ExampleDocs(c, n) }); a > n+2 {
		t.Errorf("ExampleDocs(%d): %v allocations, want at most %d", n, a, n+2)
	}
}
