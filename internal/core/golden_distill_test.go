package core

import (
	"math"
	"testing"

	"focus/internal/crawler"
	"focus/internal/distiller"
	"focus/internal/relstore"
	"focus/internal/webgraph"
)

// The golden hub/authority data below was captured from the pre-stripe
// crawler (single LINK table behind the global mutex) at commit 7a20199
// running the citationsociology example's web at test size:
//
//	Web:     webgraph.Config{Seed: 1999, NumPages: 6000,
//	         TopicWeights: {"cycling": 3}}
//	Crawl:   crawler.Config{Workers: 1, MaxFetches: 400}
//	Seeds:   SeedTopic("cycling", 10)
//	Distill: distiller.RunJoin with defaults (5 iterations, rho 0.2)
//	         over Crawler.Tables()
//
// That crawl visited 386 pages and stored 6495 LINK rows. A 1-worker crawl
// has one LINK stripe, which must reproduce the single-table LINK
// contents exactly, so the distiller — reading the striped store through
// its merged view — must land on bit-equal scores. This pins the link
// ingest semantics (dedup, EF/EB weights, forward weights resolved on read) the way
// the harvest golden pins the checkout order.
const (
	goldenDistillVisited = 386
	goldenDistillLinks   = 6495
)

var goldenHubs = []distiller.Scored{
	{OID: 3900850264707719425, Score: 0.052990534},
	{OID: -443234747858697723, Score: 0.043854173},
	{OID: -4768942772813177033, Score: 0.033197181},
	{OID: 899014757119504930, Score: 0.027925790},
	{OID: -5958830072319614383, Score: 0.027343654},
	{OID: 3992691237382214866, Score: 0.022560198},
	{OID: -403366123668497307, Score: 0.018550713},
	{OID: 2680398866477801265, Score: 0.018125877},
	{OID: 2719411826371467143, Score: 0.017362912},
	{OID: 2065634515826300791, Score: 0.016533810},
}

var goldenAuths = []distiller.Scored{
	{OID: 3352292784326470812, Score: 0.009253801},
	{OID: 224734157727991059, Score: 0.008641813},
	{OID: -415764216785744618, Score: 0.008429091},
	{OID: 5251265168372474166, Score: 0.008144818},
	{OID: -3768811011847185890, Score: 0.007476624},
	{OID: 3726598012680052343, Score: 0.006567643},
	{OID: 2057986178841803297, Score: 0.006309690},
	{OID: 3892134436032593853, Score: 0.006118191},
	{OID: 3369366134986100748, Score: 0.005756832},
	{OID: -2022723495761347960, Score: 0.005744535},
}

func TestGoldenDistillSeed1999(t *testing.T) {
	sys, err := NewSystem(Config{
		Web: webgraph.Config{
			Seed:         1999,
			NumPages:     6000,
			TopicWeights: map[string]float64{"cycling": 3},
		},
		GoodTopics: []string{"cycling"},
		Crawl: crawler.Config{
			Workers:    1,
			MaxFetches: 400,
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
	if res.Visited != goldenDistillVisited {
		t.Errorf("visited = %d, golden %d", res.Visited, goldenDistillVisited)
	}
	if got := sys.Crawler.Links().Rows(); got != goldenDistillLinks {
		t.Errorf("LINK rows = %d, golden %d (ingest dedup semantics drifted)",
			got, goldenDistillLinks)
	}
	tb, err := sys.Crawler.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distiller.RunJoin(sys.DB, tb, distiller.Config{}); err != nil {
		t.Fatal(err)
	}
	checkGoldenScores := func(name string, got, want []distiller.Scored) {
		t.Helper()
		if len(got) < len(want) {
			t.Fatalf("%s: only %d scored pages, golden has %d", name, len(got), len(want))
		}
		const tol = 1e-6 // golden captured at 9 decimals; scores are sums of ~6500 float terms
		for i, w := range want {
			if got[i].OID != w.OID {
				t.Errorf("%s[%d] = oid %d, golden %d (ranking drifted)", name, i, got[i].OID, w.OID)
				continue
			}
			if math.Abs(got[i].Score-w.Score) > tol {
				t.Errorf("%s[%d] score = %.9f, golden %.9f", name, i, got[i].Score, w.Score)
			}
		}
	}
	hubs, err := distiller.Top(tb.Hubs, len(goldenHubs))
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenScores("hubs", hubs, goldenHubs)
	auths, err := distiller.Top(tb.Auth, len(goldenAuths))
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenScores("auth", auths, goldenAuths)

	// Both distillation strategies must agree on the graph: the index-walk
	// ranking over the same striped store matches the join ranking. The
	// walk probes oid indexes the crawl does not keep.
	for _, tab := range []*relstore.Table{tb.Crawl, tb.Hubs, tb.Auth} {
		if _, err := tab.AddIndex("oid", func(t relstore.Tuple) []byte { return relstore.EncodeKey(t[0]) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := distiller.RunIndexWalk(sys.DB, tb, distiller.Config{}); err != nil {
		t.Fatal(err)
	}
	hubs2, err := distiller.Top(tb.Hubs, len(goldenHubs))
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenScores("indexwalk hubs", hubs2, goldenHubs)
}

// The golden data below was captured at commit ac2ed6f — the PR 2 crawler,
// whose distillation ran entirely under the stop-the-world barrier —
// running a Workers=1 crawl on the seed-1999 web with DistillEvery=100 and
// the hub-neighbor boost disabled, then reading the final published
// HUBS/AUTH tables:
//
//	Web:     webgraph.Config{Seed: 1999, NumPages: 6000,
//	         TopicWeights: {"cycling": 3}}
//	Crawl:   crawler.Config{Workers: 1, MaxFetches: 400,
//	         DistillEvery: 100, HubNeighborBoost: -1}
//	Seeds:   SeedTopic("cycling", 10)
//
// That crawl visited 386 pages, stored 6495 LINK rows, and distilled 3
// epochs (visits 100, 200, 300). With the boost disabled, distillation has
// no effect on the crawl itself, so today's epochs — snapshotted under the
// barrier, computed off it — must snapshot exactly the visit prefixes the
// capture's barrier run saw, and one deterministic plan over equal
// snapshots must land on the captured scores.
//
// The constants are printed at 17 significant digits, but they pin values,
// not bits. The capture summed a group's terms in whatever order an
// unstable sort left them, which no other plan can reproduce; the order of
// every float sum is now defined (distiller.RunJoin: ascending peer oid
// within a group, ascending group oid in a normalization), and a different
// order moves the last digit or two (observed: at most 4e-17). They are
// compared at 1e-12, with oid and rank exact.
const (
	goldenConcVisited  = 386
	goldenConcLinks    = 6495
	goldenConcDistills = 3
)

var goldenConcHubs = []distiller.Scored{
	{OID: 3900850264707719425, Score: 0.060928364570103963},
	{OID: -443234747858697723, Score: 0.059142663761926076},
	{OID: -5958830072319614383, Score: 0.042148381193638104},
	{OID: -4768942772813177033, Score: 0.037710101378210459},
	{OID: 899014757119504930, Score: 0.03402327500398207},
	{OID: -403366123668497307, Score: 0.025550793885699346},
	{OID: 9174453639826392782, Score: 0.022696363860172354},
	{OID: -2374683016234918510, Score: 0.021445257644010191},
	{OID: 2680398866477801265, Score: 0.01892862959242016},
	{OID: -3767817053335472371, Score: 0.017635420354371115},
}

var goldenConcAuths = []distiller.Scored{
	{OID: -415764216785744618, Score: 0.0095755862748901719},
	{OID: 224734157727991059, Score: 0.0076926196761579807},
	{OID: 3352292784326470812, Score: 0.0067774336906159284},
	{OID: 3726598012680052343, Score: 0.0065231021695057196},
	{OID: 6514978608054135005, Score: 0.0064895040751492454},
	{OID: 2682362349995432056, Score: 0.0063058086330891796},
	{OID: -2022723495761347960, Score: 0.00621179007222822},
	{OID: 3892134436032593853, Score: 0.0060613037208618577},
	{OID: 871896806319164610, Score: 0.005928242815785423},
	{OID: 5251265168372474166, Score: 0.0058711207319774965},
}

// TestGoldenConcurrentDistillEquivalence runs the capture's crawl at the
// default configuration — each epoch snapshotted under the barrier and
// computed off it — and demands that the published top hubs and
// authorities sit on the values captured when the whole HITS run held the
// barrier.
func TestGoldenConcurrentDistillEquivalence(t *testing.T) {
	sys, err := NewSystem(Config{
		Web: webgraph.Config{
			Seed:         1999,
			NumPages:     6000,
			TopicWeights: map[string]float64{"cycling": 3},
		},
		GoodTopics: []string{"cycling"},
		Crawl: crawler.Config{
			Workers:    1,
			MaxFetches: 400,
			// One distill per hundred visits; the boost is disabled so the
			// crawl is the capture's page for page (see the capture comment
			// above).
			DistillEvery:     100,
			HubNeighborBoost: -1,
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
	if res.Visited != goldenConcVisited {
		t.Errorf("visited = %d, golden %d", res.Visited, goldenConcVisited)
	}
	if got := sys.Crawler.Links().Rows(); got != goldenConcLinks {
		t.Errorf("LINK rows = %d, golden %d", got, goldenConcLinks)
	}
	if res.Distills != goldenConcDistills {
		t.Errorf("distills = %d, golden %d", res.Distills, goldenConcDistills)
	}
	if snap, pub := sys.Crawler.DistillEpochs(); snap != pub || snap != goldenConcDistills {
		t.Errorf("epochs snap=%d pub=%d, want both %d", snap, pub, goldenConcDistills)
	}
	hubs, err := sys.Crawler.TopHubURLs(len(goldenConcHubs))
	if err != nil {
		t.Fatal(err)
	}
	auths, err := sys.Crawler.TopAuthorityURLs(len(goldenConcAuths))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got []crawler.ScoredURL, want []distiller.Scored) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d scored pages, golden has %d", name, len(got), len(want))
		}
		const tol = 1e-12 // summation order only; see the capture comment
		for i, w := range want {
			if got[i].OID != w.OID {
				t.Errorf("%s[%d] = oid %d, golden %d (ranking drifted)", name, i, got[i].OID, w.OID)
				continue
			}
			if math.Abs(got[i].Score-w.Score) > tol {
				t.Errorf("%s[%d] score = %.17g, golden %.17g", name, i, got[i].Score, w.Score)
			}
		}
	}
	check("hubs", hubs, goldenConcHubs)
	check("auth", auths, goldenConcAuths)
}
