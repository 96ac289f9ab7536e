package focus

// One testing.B benchmark per figure of the paper's evaluation section.
// These wrap the harnesses in internal/eval at bench-friendly sizes and
// report the figure's headline quantity as a custom metric, so
// `go test -bench . -benchmem` regenerates every result. cmd/focusexp runs
// the same harnesses at full experiment sizes.

import (
	"testing"
	"time"

	"focus/internal/eval"
	"focus/internal/webgraph"
)

func benchWeb(seed int64, pages int) webgraph.Config {
	return webgraph.Config{
		Seed:         seed,
		NumPages:     pages,
		TopicWeights: map[string]float64{"cycling": 3},
	}
}

// BenchmarkFig5aUnfocusedHarvest measures the baseline BFS crawler's
// harvest rate (Figure 5a): the overall metric should be low and the tail
// near zero.
func BenchmarkFig5aUnfocusedHarvest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.RunHarvest(eval.HarvestConfig{
			Web: benchWeb(41+int64(i), 9000), Seeds: 8, Budget: 800,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Unfocused.Overall, "harvest")
		if n := len(r.Unfocused.Avg100); n > 0 {
			b.ReportMetric(r.Unfocused.Avg100[n-1], "harvest-tail")
		}
	}
}

// BenchmarkFig5bSoftFocusHarvest measures the focused crawler's harvest
// rate (Figure 5b): sustained, several times the baseline.
func BenchmarkFig5bSoftFocusHarvest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.RunHarvest(eval.HarvestConfig{
			Web: benchWeb(41+int64(i), 9000), Seeds: 8, Budget: 800,
			DistillEvery: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SoftFocus.Overall, "harvest")
		if n := len(r.SoftFocus.Avg100); n > 0 {
			b.ReportMetric(r.SoftFocus.Avg100[n-1], "harvest-tail")
		}
	}
}

// BenchmarkFig6aURLCoverage measures how much of a reference crawl's
// relevant URL set a disjointly-seeded test crawl re-finds (Figure 6a).
func BenchmarkFig6aURLCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.RunCoverage(eval.CoverageConfig{
			Web: benchWeb(51+int64(i), 9000), SeedsEach: 12, Budget: 900,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FinalURLFrac, "url-coverage")
	}
}

// BenchmarkFig6bServerCoverage is the server-granularity curve (Figure 6b).
func BenchmarkFig6bServerCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.RunCoverage(eval.CoverageConfig{
			Web: benchWeb(61+int64(i), 9000), SeedsEach: 12, Budget: 900,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FinalServerFrac, "server-coverage")
	}
}

// BenchmarkFig7DistanceHistogram measures how far from the seed set the
// top authorities lie on the crawl graph (Figure 7): the metric is the
// maximum distance and the count beyond radius 2.
func BenchmarkFig7DistanceHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchWeb(71+int64(i), 9000)
		cfg.LocalityWindow = 12
		cfg.ShortcutProb = 0.02
		r, err := eval.RunDistance(eval.DistanceConfig{
			Web: cfg, Seeds: 12, Budget: 900, DistillEvery: 300, TopK: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		beyond := 0
		for d, n := range r.Histogram {
			if d >= 3 {
				beyond += n
			}
		}
		b.ReportMetric(float64(r.MaxDistance), "max-distance")
		b.ReportMetric(float64(beyond), "beyond-radius-2")
	}
}

// BenchmarkFig8aSingleProbeSQL times per-document classification over
// unpacked statistics rows (Figure 8a, left bar).
func BenchmarkFig8aSingleProbeSQL(b *testing.B) {
	benchClassifierVariant(b, 0)
}

// BenchmarkFig8aSingleProbeBLOB times per-document classification over
// packed records (Figure 8a, middle bar).
func BenchmarkFig8aSingleProbeBLOB(b *testing.B) {
	benchClassifierVariant(b, 1)
}

// BenchmarkFig8aBulkProbe times batched sort-merge classification
// (Figure 8a, right bar — the paper's order-of-magnitude winner).
func BenchmarkFig8aBulkProbe(b *testing.B) {
	benchClassifierVariant(b, 2)
}

func benchClassifierVariant(b *testing.B, variant int) {
	for i := 0; i < b.N; i++ {
		r, err := eval.RunClassifierPerf(eval.ClassifierPerfConfig{
			Seed: 81, Docs: 150, Frames: 64, DiskLatency: 20 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		v := r.Variants[variant]
		b.ReportMetric(float64(v.PerDoc.Microseconds()), "us/doc")
		b.ReportMetric(float64(v.PoolMiss), "pool-misses")
	}
}

// BenchmarkFig8bMemoryScaling sweeps the buffer pool size (Figure 8b) and
// reports the SingleProbe improvement ratio between the smallest and
// largest pools.
func BenchmarkFig8bMemoryScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.RunMemoryScaling(82, 100, []int{64, 512}, 20*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		small, large := r.Points[0], r.Points[1]
		b.ReportMetric(float64(small.SingleTotal)/float64(large.SingleTotal), "single-speedup")
		b.ReportMetric(float64(small.BulkTotal)/float64(large.BulkTotal), "bulk-speedup")
	}
}

// BenchmarkFig8cOutputScaling reports bulk classification time per output
// row at two batch sizes a decade apart (Figure 8c: should be flat).
func BenchmarkFig8cOutputScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.RunOutputScaling(83, []int{60, 600}, 2048)
		if err != nil {
			b.Fatal(err)
		}
		a, c := r.Points[0], r.Points[1]
		b.ReportMetric(float64(a.BulkTotal.Nanoseconds())/float64(a.OutputSize), "ns/out-small")
		b.ReportMetric(float64(c.BulkTotal.Nanoseconds())/float64(c.OutputSize), "ns/out-large")
	}
}

// BenchmarkFig8dDistiller compares the index-walk and join distillation
// strategies over a crawled graph (Figure 8d: join ~3x faster).
func BenchmarkFig8dDistiller(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.RunDistillerPerf(eval.DistillerPerfConfig{
			Web: benchWeb(84, 6000), CrawlBudget: 600, Iterations: 2,
			Frames: 256, DiskLatency: 10 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.IndexWalk.Total().Milliseconds()), "walk-ms")
		b.ReportMetric(float64(r.Join.Total().Milliseconds()), "join-ms")
		b.ReportMetric(float64(r.IndexWalk.Total())/float64(r.Join.Total()), "join-speedup")
	}
}
