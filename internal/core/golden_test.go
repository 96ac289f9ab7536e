package core

import (
	"math"
	"testing"

	"focus/internal/crawler"
	"focus/internal/webgraph"
)

// The golden harvest data below was captured from the pre-shard crawler
// (single global mutex, one frontier B+tree) at commit d296b0b running:
//
//	Web:   webgraph.Config{Seed: 1, NumPages: 6000}
//	Crawl: crawler.Config{Workers: 1, MaxFetches: 400, DistillEvery: 150}
//	Seeds: SeedTopic("cycling", 10)
//
// A 1-worker sharded crawl has one frontier shard, which must
// reproduce the pre-shard checkout order exactly; this test guards the
// (numtries ASC, relevance DESC, serverload ASC) priority semantics against
// bugs introduced by the shard refactor.
const (
	goldenVisited = 380
	goldenFetches = 400
	goldenOverall = 0.221053
)

// goldenCurve holds window-100 moving-average relevance checkpoints,
// indexed by visit count.
var goldenCurve = map[int]float64{
	50:  0.260000,
	100: 0.190000,
	150: 0.160001,
	200: 0.190001,
	250: 0.240000,
	300: 0.280000,
	350: 0.230000,
	380: 0.230000,
}

// goldenOIDPrefix is the first 40 visited oids in visit order.
var goldenOIDPrefix = []int64{
	-1995118949067713924, -419163271946602503, -5982267793654757450,
	139916767955004808, -8333375327028844439, -6362124005101839200,
	-4706913900494976211, -4486467520446004712, -124408405543179507,
	250556322411592897, -7400285218762684821, 539919329872495866,
	2683363466251489583, 3775806550985720694, 5679504058830448713,
	-6822956693995724278, -1798597118714239012, 6145361422942949810,
	-7727276688659769851, -1748081271809314409, -7329357528334939955,
	-6355468191630312001, -5481374169509062126, -4587776693641756478,
	-3148681007050251118, -3077145481855151403, -2394431075730562335,
	-8802785266455921451, -2389749500125528138, -2369895742606633941,
	358996886973382302, 768907787870330437, 2472404958378977210,
	2488767377501129433, -6563340581766651495, 4648616256352432165,
	7213747964407287823, 7216778657648894919, 8899847285760977883,
	-9185625547317682972,
}

func TestGoldenHarvestSeed1(t *testing.T) {
	runGoldenHarvest(t)
}

func runGoldenHarvest(t *testing.T) {
	t.Helper()
	sys, err := NewSystem(Config{
		Web:        webgraph.Config{Seed: 1, NumPages: 6000},
		GoodTopics: []string{"cycling"},
		Crawl: crawler.Config{
			// One worker keeps the visit order a pure function of the
			// checkout semantics this golden pins: the visit that triggers
			// an epoch publishes it and applies its hub-neighbor boosts
			// before the next checkout.
			Workers:      1,
			MaxFetches:   400,
			DistillEvery: 150,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SeedTopic("cycling", 10); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != goldenVisited || res.Fetches != goldenFetches {
		t.Errorf("visited=%d fetches=%d, golden %d/%d",
			res.Visited, res.Fetches, goldenVisited, goldenFetches)
	}
	log := sys.Crawler.HarvestLog()
	if len(log) < len(goldenOIDPrefix) {
		t.Fatalf("harvest log has %d points, need at least %d", len(log), len(goldenOIDPrefix))
	}
	for i, want := range goldenOIDPrefix {
		if log[i].OID != want {
			t.Fatalf("visit %d fetched oid %d, golden order wants %d "+
				"(checkout priority order has drifted)", i, log[i].OID, want)
		}
	}

	// Window-100 moving-average curve, within tolerance.
	const tol = 0.02
	var sum float64
	avg := make([]float64, len(log))
	for i, h := range log {
		sum += h.Relevance
		if i >= 100 {
			sum -= log[i-100].Relevance
		}
		n := i + 1
		if n > 100 {
			n = 100
		}
		avg[i] = sum / float64(n)
	}
	for visits, want := range goldenCurve {
		if visits > len(avg) {
			t.Errorf("curve checkpoint %d beyond log length %d", visits, len(avg))
			continue
		}
		if got := avg[visits-1]; math.Abs(got-want) > tol {
			t.Errorf("harvest avg100 at visit %d = %.6f, golden %.6f (tol %.2f)",
				visits, got, want, tol)
		}
	}
	var total float64
	for _, h := range log {
		total += h.Relevance
	}
	if overall := total / float64(len(log)); math.Abs(overall-goldenOverall) > 0.01 {
		t.Errorf("overall harvest %.6f, golden %.6f", overall, goldenOverall)
	}
}
