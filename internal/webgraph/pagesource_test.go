package webgraph

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// FuzzPageSource holds pageSource's stream, through rand.Rand, to
// math/rand's for the same seed: every value of Int63, Uint64, Float64, Intn
// and Int63n, over more than one turn of the 607-word register. The source is first seeded with another seed and
// drawn from, as a pooled one is, so Seed must overwrite all of it.
func FuzzPageSource(f *testing.F) {
	for _, seed := range []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max * int32max, int32max - 1, int32max + 1, 89482311,
		math.MinInt64, math.MaxInt64, 0x5851F42D4C957F2D,
	} {
		f.Add(seed, uint16(1300))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got := rand.New(new(pageSource))
		got.Seed(^seed)
		got.Int63()
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < int(draws%2048); k++ {
			var g, w any
			switch k % 5 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = got.Float64(), want.Float64()
			case 3:
				g, w = got.Intn(k+1), want.Intn(k+1)
			case 4:
				g, w = got.Int63n(1<<40+int64(k)), want.Int63n(1<<40+int64(k))
			}
			if g != w {
				t.Fatalf("seed %d, draw %d: pageSource gave %v, math/rand %v", seed, k, g, w)
			}
		}
	})
}

// TestFetchAllocs is a count law: a warm Fetch of a page with no dead links
// allocates its result, the token slice and the outlink slice, and no
// generator (math/rand's source was 4.9 KB a fetch) and no ancestor list.
func TestFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled generators")
	}
	w, err := Generate(Config{Seed: 1, NumPages: 500, TimeoutRate: Off})
	if err != nil {
		t.Fatal(err)
	}
	var url string
	for _, p := range w.Pages {
		if p.Dead == 0 && len(p.Links) > 0 {
			url = p.URL
			break
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := w.Fetch(url); err != nil {
			t.Fatal(err)
		}
	}); a != 3 {
		t.Errorf("Fetch: %v allocations, want 3", a)
	}
}

// TestConcurrentFetchStress fetches every page from four goroutines at once,
// each through the pooled generators, and holds each page's tokens to the
// ones a fresh math/rand source gives.
func TestConcurrentFetchStress(t *testing.T) {
	w, err := Generate(Config{Seed: 2, NumPages: 300, TimeoutRate: Off})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range w.Pages {
				p := w.Pages[(i+g*77)%len(w.Pages)]
				res, err := w.Fetch(p.URL)
				if err != nil {
					t.Error(err)
					return
				}
				if want := w.tokensOf(p, rand.New(rand.NewSource(p.seed)), nil); !slices.Equal(res.Tokens, want) {
					t.Errorf("page %d: pooled tokens differ from math/rand's", p.ID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var fetchSink *FetchResult

// BenchmarkFetch times a whole Fetch, the page's text and links, on the
// standard web's pages (~150 tokens) and the doc-heavy web's (~2 400).
func BenchmarkFetch(b *testing.B) {
	for _, bw := range []struct {
		name string
		cfg  Config
	}{
		{"standard", Config{NumPages: 500, TimeoutRate: Off}},
		{"docheavy", Config{NumPages: 500, TimeoutRate: Off, DocLenMean: 2400, BackgroundVocab: 20000, TopicVocab: 240}},
	} {
		b.Run(bw.name, func(b *testing.B) {
			w, err := Generate(bw.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fetchSink, err = w.Fetch(w.Pages[i%len(w.Pages)].URL); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
