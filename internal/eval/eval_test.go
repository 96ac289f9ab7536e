package eval

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"focus/internal/crawler"
	"focus/internal/webgraph"
)

func TestMovingAverage(t *testing.T) {
	log := []crawler.HarvestPoint{
		{Relevance: 1}, {Relevance: 0}, {Relevance: 1}, {Relevance: 0},
	}
	avg := MovingAverage(log, 2)
	want := []float64{1, 0.5, 0.5, 0.5}
	for i := range want {
		if avg[i] != want[i] {
			t.Fatalf("avg[%d] = %f, want %f", i, avg[i], want[i])
		}
	}
	full := MovingAverage(log, 100)
	if full[3] != 0.5 {
		t.Fatalf("full-window avg = %f", full[3])
	}
	if got := MovingAverage(nil, 10); len(got) != 0 {
		t.Fatal("nil log")
	}
}

func TestRunHarvestShape(t *testing.T) {
	r, err := RunHarvest(HarvestConfig{
		Web: webgraph.Config{
			Seed:         31,
			NumPages:     9000,
			TopicWeights: map[string]float64{"cycling": 3},
		},
		Seeds:  6,
		Budget: 700,
		// One worker makes the crawl order — and so this statistical
		// shape — deterministic; multi-worker behavior is covered by the
		// crawler's -race suite and BenchmarkCrawlWorkers.
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.SoftFocus.Overall <= r.Unfocused.Overall {
		t.Fatalf("soft %.3f <= unfocused %.3f", r.SoftFocus.Overall, r.Unfocused.Overall)
	}
	// The unfocused tail must be collapsing.
	n := len(r.Unfocused.Avg100)
	if n > 200 && r.Unfocused.Avg100[n-1] > r.Unfocused.Avg100[100] {
		t.Fatalf("unfocused harvest is not decaying: %.3f -> %.3f",
			r.Unfocused.Avg100[100], r.Unfocused.Avg100[n-1])
	}
	var buf bytes.Buffer
	r.Render(&buf, 100)
	if !strings.Contains(buf.String(), "soft-focus") {
		t.Fatal("render missing series")
	}
}

func TestRunCoverageShape(t *testing.T) {
	r, err := RunCoverage(CoverageConfig{
		Web: webgraph.Config{
			Seed:         32,
			NumPages:     9000,
			TopicWeights: map[string]float64{"cycling": 3},
		},
		SeedsEach: 12,
		Budget:    900,
		Workers:   1, // deterministic crawl order for a shape assertion
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.RefRelevantURLs < 50 {
		t.Fatalf("reference too small: %d", r.RefRelevantURLs)
	}
	// Coverage must rise substantially (the paper reaches 83% / 90%).
	if r.FinalURLFrac < 0.4 {
		t.Fatalf("URL coverage %.2f too low", r.FinalURLFrac)
	}
	if r.FinalServerFrac < 0.5 {
		t.Fatalf("server coverage %.2f too low", r.FinalServerFrac)
	}
	// Curves are monotone.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].URLFrac < r.Points[i-1].URLFrac {
			t.Fatal("URL coverage not monotone")
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("render broken")
	}
}

func TestRunDistanceShape(t *testing.T) {
	r, err := RunDistance(DistanceConfig{
		Web: webgraph.Config{
			Seed:           33,
			NumPages:       9000,
			TopicWeights:   map[string]float64{"cycling": 3},
			LocalityWindow: 12,
			ShortcutProb:   0.02,
		},
		Seeds:        12,
		Budget:       900,
		Workers:      1, // deterministic crawl order for a shape assertion
		DistillEvery: 300,
		TopK:         60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TopHubs) == 0 || len(r.TopAuthorities) == 0 {
		t.Fatal("no distilled pages")
	}
	// Figure 7's point: good resources lie well beyond the seed set's
	// immediate neighborhood.
	beyond := 0
	for d, n := range r.Histogram {
		if d >= 3 {
			beyond += n
		}
	}
	if beyond < 5 {
		t.Fatalf("only %d top authorities beyond distance 2 (max=%d)",
			beyond, r.MaxDistance)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Top hubs") {
		t.Fatal("render broken")
	}
}

func TestClassifierPerfOrdering(t *testing.T) {
	r, err := RunClassifierPerf(ClassifierPerfConfig{
		Seed:        34,
		Docs:        120,
		Frames:      64,
		DiskLatency: 20 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 3 {
		t.Fatalf("variants = %d", len(r.Variants))
	}
	sql, blob, bulk := r.Variants[0], r.Variants[1], r.Variants[2]
	// The paper's ordering — bulk far ahead of both single-probe variants,
	// the packed BLOB layout ahead of unpacked SQL rows — is an argument
	// about page accesses, and those repeat run to run. Wall times follow
	// them only when an access costs I/O; at this size nearly all are pool
	// hits, so the times are rendered, not asserted.
	acc := func(v VariantPerf) int64 { return v.PoolHits + v.PoolMiss }
	if acc(bulk)*10 >= acc(blob) {
		t.Fatalf("bulk (%d page accesses) should be far below blob (%d)", acc(bulk), acc(blob))
	}
	if acc(blob) >= acc(sql) {
		t.Fatalf("blob (%d page accesses) should be below sql (%d)", acc(blob), acc(sql))
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "BulkProbe") {
		t.Fatal("render broken")
	}
}

func TestMemoryScalingShape(t *testing.T) {
	r, err := RunMemoryScaling(35, 100, []int{32, 512}, 20*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	small, large := r.Points[0], r.Points[1]
	// SingleProbe must benefit from more memory (fewer misses, less time).
	if large.SingleMiss >= small.SingleMiss {
		t.Fatalf("single misses did not drop: %d -> %d", small.SingleMiss, large.SingleMiss)
	}
	if large.SingleTotal >= small.SingleTotal {
		t.Fatalf("single time did not drop: %v -> %v", small.SingleTotal, large.SingleTotal)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 8(b)") {
		t.Fatal("render broken")
	}
}

func TestOutputScalingRoughlyLinear(t *testing.T) {
	r, err := RunOutputScaling(36, []int{60, 600}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	a, b := r.Points[0], r.Points[1]
	if b.OutputSize <= a.OutputSize {
		t.Fatal("output sizes not increasing")
	}
	// Time per output unit should not explode (within 4x across a decade).
	ra := float64(a.BulkTotal.Nanoseconds()) / float64(a.OutputSize)
	rb := float64(b.BulkTotal.Nanoseconds()) / float64(b.OutputSize)
	if rb > 4*ra {
		t.Fatalf("superlinear blowup: %.0f -> %.0f ns/output", ra, rb)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 8(c)") {
		t.Fatal("render broken")
	}
}

func TestDistillerPerfJoinWins(t *testing.T) {
	cfg := DistillerPerfConfig{
		Web: webgraph.Config{
			Seed:         37,
			NumPages:     6000,
			TopicWeights: map[string]float64{"cycling": 3},
		},
		CrawlBudget: 600,
		Iterations:  2,
		Frames:      256,
		DiskLatency: 10 * time.Microsecond,
	}
	r, err := RunDistillerPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The figure's counts repeat run to run: the fixture's crawl is a
	// function of its config.
	again, err := RunDistillerPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(r *DistillerPerfResult) [5]int64 {
		return [5]int64{r.Edges, r.WalkAccesses, r.JoinAccesses, r.WalkReads, r.JoinReads}
	}
	if counts(r) != counts(again) {
		t.Fatalf("two runs of one config counted (edges, walk and join accesses, walk and join reads) %v and %v", counts(r), counts(again))
	}
	if r.Edges == 0 {
		t.Fatal("no edges crawled")
	}
	// Figure 8(d) is likewise asserted on what the plans touch, not on how
	// long a mostly-resident run happened to take.
	if r.JoinReads >= r.WalkReads {
		t.Fatalf("join (%d disk reads) should read less than the index walk (%d)", r.JoinReads, r.WalkReads)
	}
	if r.JoinAccesses*4 >= r.WalkAccesses {
		t.Fatalf("join (%d page accesses) should be far below the index walk (%d)", r.JoinAccesses, r.WalkAccesses)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("render broken")
	}
}

func TestRunHostilePoliteBeatsNaive(t *testing.T) {
	// The headline acceptance number: at the default hostile level, the
	// polite stack must buy at least 1.3x the naive crawler's harvest
	// (ground-truth relevant pages per fetch attempt) out of the same
	// budget. Observed gain is ~3x, so the floor has wide headroom.
	if raceEnabled {
		// The study measures real time; under the race detector's slowdown
		// the crawl never exceeds a host's rate budget, so there is no
		// hostility for politeness to win against (see race_on.go).
		t.Skip("hostile-web timing study is not meaningful under -race")
	}
	r, err := RunHostile(HostileConfig{Seed: 61, Levels: []int{DefaultHostileLevel}})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := r.PointAt(DefaultHostileLevel)
	if !ok {
		t.Fatalf("no point at level %d", DefaultHostileLevel)
	}
	t.Logf("naive: %+v", p.Naive)
	t.Logf("polite: %+v", p.Polite)
	if p.Naive.Visited == 0 || p.Polite.Visited == 0 {
		t.Fatal("a crawl visited nothing")
	}
	// The hostility must actually engage: the naive crawler should be
	// bleeding budget into 429s, and the polite one tripping breakers on
	// dark hosts rather than hammering them.
	if p.Naive.RateLimited == 0 {
		t.Fatal("naive crawl never rate-limited; web not hostile enough to measure")
	}
	if p.Polite.BreakerTrips == 0 {
		t.Fatal("polite crawl never tripped a breaker")
	}
	if p.PoliteGain < 1.3 {
		t.Fatalf("polite harvest gain %.2fx below the 1.3x floor (naive %.3f, polite %.3f)",
			p.PoliteGain, p.Naive.Harvest, p.Polite.Harvest)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "polite harvest gain") {
		t.Fatal("render broken")
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"polite_gain\"") {
		t.Fatal("json artifact broken")
	}
}
