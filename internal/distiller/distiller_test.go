package distiller

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"focus/internal/relstore"
)

func crawlSchema() *relstore.Schema {
	return relstore.NewSchema(
		relstore.Column{Name: "oid", Kind: relstore.KInt64},
		relstore.Column{Name: "relevance", Kind: relstore.KFloat64},
	)
}

// linkSchema is the LINK contract the Tables doc spells out.
func linkSchema() *relstore.Schema {
	return relstore.NewSchema(
		relstore.Column{Name: "oid_src", Kind: relstore.KInt64},
		relstore.Column{Name: "sid_src", Kind: relstore.KInt32},
		relstore.Column{Name: "oid_dst", Kind: relstore.KInt64},
		relstore.Column{Name: "sid_dst", Kind: relstore.KInt32},
		relstore.Column{Name: "wgt_fwd", Kind: relstore.KFloat64},
		relstore.Column{Name: "wgt_rev", Kind: relstore.KFloat64},
	)
}

type edge struct {
	src, dst       int64
	sidSrc, sidDst int32
	wgtFwd, wgtRev float64
}

// buildGraph materializes edges and per-node relevance into fresh tables.
func buildGraph(t *testing.T, edges []edge, rel map[int64]float64) (*relstore.DB, Tables) {
	t.Helper()
	db := relstore.Open(relstore.Options{Frames: 1024})
	link, err := db.CreateTable("LINK", linkSchema())
	if err != nil {
		t.Fatal(err)
	}
	crawl, _ := db.CreateTable("CRAWL", crawlSchema())
	if _, err := crawl.AddIndex("oid", func(tp relstore.Tuple) []byte {
		return relstore.EncodeKey(tp[0])
	}); err != nil {
		t.Fatal(err)
	}
	hubs, _ := db.CreateTable("HUBS", HubsAuthSchema())
	hubs.AddIndex("oid", func(tp relstore.Tuple) []byte { return relstore.EncodeKey(tp[0]) })
	auth, _ := db.CreateTable("AUTH", HubsAuthSchema())
	auth.AddIndex("oid", func(tp relstore.Tuple) []byte { return relstore.EncodeKey(tp[0]) })

	for _, e := range edges {
		_, err := link.Insert(relstore.Tuple{
			relstore.I64(e.src), relstore.I32(e.sidSrc),
			relstore.I64(e.dst), relstore.I32(e.sidDst),
			relstore.F64(e.wgtFwd), relstore.F64(e.wgtRev),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for oid, r := range rel {
		if _, err := crawl.Insert(relstore.Tuple{relstore.I64(oid), relstore.F64(r)}); err != nil {
			t.Fatal(err)
		}
	}
	return db, Tables{Link: link, Crawl: crawl, Hubs: hubs, Auth: auth}
}

// refHITS is an in-memory reference implementation mirroring Config.
func refHITS(edges []edge, rel map[int64]float64, cfg Config) (hubs, auth map[int64]float64) {
	cfg = cfg.withDefaults()
	hubs = map[int64]float64{}
	for _, e := range edges {
		hubs[e.src] = 1
	}
	auth = map[int64]float64{}
	for it := 0; it < cfg.Iterations; it++ {
		auth = map[int64]float64{}
		for _, e := range edges {
			if !cfg.NoNepotismFilter && e.sidSrc == e.sidDst {
				continue
			}
			if rel[e.dst] <= cfg.Rho {
				continue
			}
			w := e.wgtFwd
			if cfg.Unweighted {
				w = 1
			}
			auth[e.dst] += hubs[e.src] * w
		}
		normalizeMap(auth)
		hubs = map[int64]float64{}
		for _, e := range edges {
			if !cfg.NoNepotismFilter && e.sidSrc == e.sidDst {
				continue
			}
			w := e.wgtRev
			if cfg.Unweighted {
				w = 1
			}
			hubs[e.src] += auth[e.dst] * w
		}
		normalizeMap(hubs)
	}
	// Drop exact zeros: the store only materializes contributing rows.
	for k, v := range hubs {
		if v == 0 {
			delete(hubs, k)
		}
	}
	for k, v := range auth {
		if v == 0 {
			delete(auth, k)
		}
	}
	return hubs, auth
}

func normalizeMap(m map[int64]float64) {
	var sum float64
	for _, v := range m {
		sum += v
	}
	if sum == 0 {
		return
	}
	for k := range m {
		m[k] /= sum
	}
}

func tableScores(t *testing.T, tb *relstore.Table) map[int64]float64 {
	t.Helper()
	out := map[int64]float64{}
	err := tb.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		if tp[1].Float() != 0 {
			out[tp[0].Int()] = tp[1].Float()
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randomGraph(seed int64, nodes, nedges int) ([]edge, map[int64]float64) {
	rng := rand.New(rand.NewSource(seed))
	rel := map[int64]float64{}
	for i := 0; i < nodes; i++ {
		rel[int64(i)] = rng.Float64()
	}
	edges := make([]edge, 0, nedges)
	for i := 0; i < nedges; i++ {
		src, dst := int64(rng.Intn(nodes)), int64(rng.Intn(nodes))
		if src == dst {
			continue
		}
		edges = append(edges, edge{
			src: src, dst: dst,
			sidSrc: int32(src % 17), sidDst: int32(dst % 17),
			wgtFwd: rel[dst], wgtRev: rel[src],
		})
	}
	return edges, rel
}

func assertScoresMatch(t *testing.T, got, want map[int64]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		if g := got[k]; math.Abs(g-w) > 1e-9 {
			t.Fatalf("%s: node %d score %.12f, want %.12f", label, k, g, w)
		}
	}
}

// tableRows returns every row of a score table, zero scores included.
func tableRows(t *testing.T, tb *relstore.Table) map[int64]float64 {
	t.Helper()
	out := map[int64]float64{}
	err := tb.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
		if _, dup := out[tp[0].Int()]; dup {
			t.Fatalf("oid %d has two rows", tp[0].Int())
		}
		out[tp[0].Int()] = tp[1].Float()
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJoinMatchesReference checks RunJoin against the in-memory reference
// over the Config surface: the row sets are exactly the sources and
// destinations of eligible edges (zero scores included), the scores are
// refHITS's, and the index walk — which never materializes a zero — scores
// the same pages.
func TestJoinMatchesReference(t *testing.T) {
	randEdges, randRel := randomGraph(5, 200, 1500)
	lowRel := map[int64]float64{}
	for oid := range randRel {
		lowRel[oid] = 0.1
	}
	zeroWeight := []edge{
		{src: 1, dst: 10, sidSrc: 1, sidDst: 2, wgtFwd: 0.9, wgtRev: 0.5},
		{src: 2, dst: 11, sidSrc: 3, sidDst: 4, wgtFwd: 0, wgtRev: 0},
	}
	cases := []struct {
		name  string
		edges []edge
		rel   map[int64]float64
		cfg   Config
		// wantRows is the row count of both tables where the case is built
		// to produce a particular one; -1 leaves it to the rule.
		wantRows int
	}{
		{"default", randEdges, randRel, Config{}, -1},
		{"one iteration", randEdges, randRel, Config{Iterations: 1}, -1},
		{"rho 0.6", randEdges, randRel, Config{Rho: 0.6}, -1},
		{"unweighted", randEdges, randRel, Config{Unweighted: true}, -1},
		{"no nepotism filter", randEdges, randRel, Config{NoNepotismFilter: true}, -1},
		{"every destination fails rho", randEdges, lowRel, Config{}, 0},
		{"zero-weight eligible edge", zeroWeight, map[int64]float64{10: 0.9, 11: 0.9}, Config{}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, tb := buildGraph(t, c.edges, c.rel)
			if _, err := RunJoin(db, tb, c.cfg); err != nil {
				t.Fatal(err)
			}
			cfg := c.cfg.withDefaults()
			wantAuth, wantHubs := map[int64]bool{}, map[int64]bool{}
			for _, e := range c.edges {
				if (cfg.NoNepotismFilter || e.sidSrc != e.sidDst) && c.rel[e.dst] > cfg.Rho {
					wantAuth[e.dst], wantHubs[e.src] = true, true
				}
			}
			for _, side := range []struct {
				name string
				rows map[int64]float64
				want map[int64]bool
			}{
				{"auth", tableRows(t, tb.Auth), wantAuth},
				{"hubs", tableRows(t, tb.Hubs), wantHubs},
			} {
				if c.wantRows >= 0 && len(side.rows) != c.wantRows {
					t.Errorf("%s: %d rows, want %d", side.name, len(side.rows), c.wantRows)
				}
				if len(side.rows) != len(side.want) {
					t.Errorf("%s: %d rows, want the %d endpoints of eligible edges", side.name, len(side.rows), len(side.want))
				}
				for oid := range side.want {
					if _, ok := side.rows[oid]; !ok {
						t.Errorf("%s: no row for eligible endpoint %d", side.name, oid)
					}
				}
			}
			refH, refA := refHITS(c.edges, c.rel, c.cfg)
			joinH, joinA := tableScores(t, tb.Hubs), tableScores(t, tb.Auth)
			assertScoresMatch(t, joinH, refH, "hubs")
			assertScoresMatch(t, joinA, refA, "auth")

			db2, tb2 := buildGraph(t, c.edges, c.rel)
			if _, err := RunIndexWalk(db2, tb2, c.cfg); err != nil {
				t.Fatal(err)
			}
			assertScoresMatch(t, tableScores(t, tb2.Hubs), joinH, "hubs walk-vs-join")
			assertScoresMatch(t, tableScores(t, tb2.Auth), joinA, "auth walk-vs-join")
		})
	}
}

// TestJoinRerunIsIdempotent: RunJoin again over the same tables leaves them
// bit-equal, row for row in the same scan order, and takes no new disk page
// — truncating a score table frees what its reload allocates, and the plan
// itself allocates none. Pages are counted from the second run on:
// HeapFile.Truncate takes its new head page before it frees the old chain,
// so the first reload of a table can find the free list one page short.
func TestJoinRerunIsIdempotent(t *testing.T) {
	edges, rel := randomGraph(9, 400, 4000)
	db, tb := buildGraph(t, edges, rel)
	scan := func(tb *relstore.Table) (rows []Scored) {
		t.Helper()
		err := tb.Scan(func(_ relstore.RID, tp relstore.Tuple) (bool, error) {
			rows = append(rows, Scored{OID: tp[0].Int(), Score: tp[1].Float()})
			return false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	run := func() (hubs, auth []Scored, pages int64) {
		t.Helper()
		if _, err := RunJoin(db, tb, Config{}); err != nil {
			t.Fatal(err)
		}
		return scan(tb.Hubs), scan(tb.Auth), int64(db.Disk().NumPages())
	}
	hubs1, auth1, _ := run()
	if len(hubs1) == 0 || len(auth1) == 0 {
		t.Fatal("nothing scored")
	}
	if !slices.IsSortedFunc(hubs1, func(a, b Scored) int { return cmp.Compare(a.OID, b.OID) }) {
		t.Error("HUBS not loaded in ascending oid order")
	}
	_, _, pages2 := run()
	hubs3, auth3, pages3 := run()
	if !slices.Equal(hubs1, hubs3) {
		t.Error("HUBS differs between runs over the same tables")
	}
	if !slices.Equal(auth1, auth3) {
		t.Error("AUTH differs between runs over the same tables")
	}
	if pages3 != pages2 {
		t.Errorf("a rerun grew the disk from %d to %d pages", pages2, pages3)
	}
}

func TestIndexWalkMatchesReference(t *testing.T) {
	edges, rel := randomGraph(6, 150, 1000)
	db, tb := buildGraph(t, edges, rel)
	cfg := Config{Iterations: 3}
	if _, err := RunIndexWalk(db, tb, cfg); err != nil {
		t.Fatal(err)
	}
	refH, refA := refHITS(edges, rel, cfg)
	assertScoresMatch(t, tableScores(t, tb.Hubs), refH, "hubs")
	assertScoresMatch(t, tableScores(t, tb.Auth), refA, "auth")
}

func TestJoinAndWalkAgree(t *testing.T) {
	edges, rel := randomGraph(7, 300, 2500)
	cfg := Config{Iterations: 5, Rho: 0.3}
	db1, tb1 := buildGraph(t, edges, rel)
	if _, err := RunJoin(db1, tb1, cfg); err != nil {
		t.Fatal(err)
	}
	db2, tb2 := buildGraph(t, edges, rel)
	if _, err := RunIndexWalk(db2, tb2, cfg); err != nil {
		t.Fatal(err)
	}
	assertScoresMatch(t, tableScores(t, tb2.Hubs), tableScores(t, tb1.Hubs), "hubs join-vs-walk")
	assertScoresMatch(t, tableScores(t, tb2.Auth), tableScores(t, tb1.Auth), "auth join-vs-walk")
}

func TestNepotismFilter(t *testing.T) {
	// A same-server clique endorsing one target must confer nothing when
	// the filter is on.
	edges := []edge{
		{src: 1, dst: 10, sidSrc: 1, sidDst: 1, wgtFwd: 1, wgtRev: 1},
		{src: 2, dst: 10, sidSrc: 1, sidDst: 1, wgtFwd: 1, wgtRev: 1},
		{src: 3, dst: 20, sidSrc: 2, sidDst: 3, wgtFwd: 1, wgtRev: 1},
	}
	rel := map[int64]float64{10: 0.9, 20: 0.9}
	db, tb := buildGraph(t, edges, rel)
	if _, err := RunJoin(db, tb, Config{Iterations: 2}); err != nil {
		t.Fatal(err)
	}
	auth := tableScores(t, tb.Auth)
	if auth[10] != 0 {
		t.Fatalf("nepotistic authority scored %.3f", auth[10])
	}
	if auth[20] == 0 {
		t.Fatal("legitimate authority unscored")
	}
	// Ablation: with the filter off, the clique wins.
	db2, tb2 := buildGraph(t, edges, rel)
	if _, err := RunJoin(db2, tb2, Config{Iterations: 2, NoNepotismFilter: true}); err != nil {
		t.Fatal(err)
	}
	auth2 := tableScores(t, tb2.Auth)
	if auth2[10] <= auth2[20] {
		t.Fatalf("without filter, clique should dominate: %v", auth2)
	}
}

func TestRhoFilterExcludesIrrelevantAuthorities(t *testing.T) {
	edges := []edge{
		{src: 1, dst: 10, sidSrc: 1, sidDst: 2, wgtFwd: 1, wgtRev: 1},
		{src: 1, dst: 11, sidSrc: 1, sidDst: 3, wgtFwd: 1, wgtRev: 1},
	}
	rel := map[int64]float64{10: 0.9, 11: 0.05}
	db, tb := buildGraph(t, edges, rel)
	if _, err := RunJoin(db, tb, Config{Iterations: 2, Rho: 0.2}); err != nil {
		t.Fatal(err)
	}
	auth := tableScores(t, tb.Auth)
	if auth[11] != 0 {
		t.Fatalf("irrelevant authority scored %.3f", auth[11])
	}
	if math.Abs(auth[10]-1) > 1e-9 {
		t.Fatalf("relevant authority = %.3f, want 1", auth[10])
	}
}

func TestEdgeWeightsPreventLeakage(t *testing.T) {
	// A hub pointing at one relevant and one irrelevant page: with EF
	// weights, the irrelevant page (above rho but weakly relevant) gets
	// proportionally less endorsement.
	edges := []edge{
		{src: 1, dst: 10, sidSrc: 1, sidDst: 2, wgtFwd: 0.9, wgtRev: 0.5},
		{src: 1, dst: 11, sidSrc: 1, sidDst: 3, wgtFwd: 0.3, wgtRev: 0.5},
	}
	rel := map[int64]float64{10: 0.9, 11: 0.3}
	db, tb := buildGraph(t, edges, rel)
	if _, err := RunJoin(db, tb, Config{Iterations: 2, Rho: 0.1}); err != nil {
		t.Fatal(err)
	}
	auth := tableScores(t, tb.Auth)
	if auth[10] <= auth[11] {
		t.Fatalf("weighting failed: %v", auth)
	}
	ratio := auth[10] / auth[11]
	if math.Abs(ratio-3) > 1e-6 {
		t.Fatalf("ratio = %.3f, want 3 (0.9/0.3)", ratio)
	}
}

func TestHubsFindResourceLists(t *testing.T) {
	// Structure: pages 1..5 are hubs all pointing at authorities 10..14;
	// page 6 points at one authority only. Hubs 1..5 must outrank 6.
	var edges []edge
	for h := int64(1); h <= 5; h++ {
		for a := int64(10); a <= 14; a++ {
			edges = append(edges, edge{src: h, dst: a,
				sidSrc: int32(h), sidDst: int32(a), wgtFwd: 0.9, wgtRev: 0.9})
		}
	}
	edges = append(edges, edge{src: 6, dst: 10, sidSrc: 6, sidDst: 10, wgtFwd: 0.9, wgtRev: 0.9})
	rel := map[int64]float64{}
	for a := int64(10); a <= 14; a++ {
		rel[a] = 0.9
	}
	db, tb := buildGraph(t, edges, rel)
	if _, err := RunJoin(db, tb, Config{Iterations: 4}); err != nil {
		t.Fatal(err)
	}
	top, err := Top(tb.Hubs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("top = %v", top)
	}
	for _, s := range top {
		if s.OID == 6 {
			t.Fatal("weak hub in top 5")
		}
	}
	hubs := tableScores(t, tb.Hubs)
	if hubs[6] >= hubs[1] {
		t.Fatalf("hub ordering wrong: %v", hubs)
	}
}

func TestTopAndPercentile(t *testing.T) {
	db := relstore.Open(relstore.Options{Frames: 64})
	hubs, _ := db.CreateTable("HUBS", HubsAuthSchema())
	for i := int64(0); i < 10; i++ {
		hubs.Insert(relstore.Tuple{relstore.I64(i), relstore.F64(float64(i) / 10)})
	}
	top, err := Top(hubs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || top[0].OID != 9 || top[1].OID != 8 || top[2].OID != 7 {
		t.Fatalf("top = %v", top)
	}
	p, ok, err := Percentile(hubs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Percentile reported empty table for 10 rows")
	}
	if p < 0.7 || p > 0.9 {
		t.Fatalf("p90 = %f", p)
	}
}

// TestIndexWalkRefusesUnindexedTables: the walk probes oid indexes on
// HUBS and AUTH, and on CRAWL for the rho filter unless Config.Relevance
// supplies it. A table missing its index is refused by name — not a nil
// dereference, and not a walk that silently skips the rho filter and so
// disagrees with RunJoin.
func TestIndexWalkRefusesUnindexedTables(t *testing.T) {
	edges, rel := randomGraph(5, 40, 200)
	for _, c := range []struct {
		drop string
		cfg  Config
		ok   bool
	}{
		{drop: "HUBS"},
		{drop: "AUTH"},
		{drop: "CRAWL"},
		{drop: "CRAWL", cfg: Config{Relevance: rel}, ok: true},
	} {
		db, tb := buildGraph(t, edges, rel)
		if err := db.Table(c.drop).DropIndex("oid"); err != nil {
			t.Fatal(err)
		}
		_, err := RunIndexWalk(db, tb, c.cfg)
		if c.ok {
			if err != nil {
				t.Errorf("%s unindexed, relevance given: %v", c.drop, err)
			}
			continue
		}
		if !errors.Is(err, errNoOidIndex) || !strings.Contains(err.Error(), c.drop) {
			t.Errorf("%s unindexed: err %v, want errNoOidIndex naming it", c.drop, err)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	db, tb := buildGraph(t, nil, nil)
	if _, err := RunJoin(db, tb, Config{}); err != nil {
		t.Fatal(err)
	}
	if len(tableScores(t, tb.Auth)) != 0 {
		t.Fatal("scores from empty graph")
	}
	if _, err := RunIndexWalk(db, tb, Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownAccounting(t *testing.T) {
	edges, rel := randomGraph(8, 100, 800)
	db, tb := buildGraph(t, edges, rel)
	bd, err := RunIndexWalk(db, tb, Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= 0 {
		t.Fatal("no time recorded")
	}
	if bd.Lookup == 0 {
		t.Fatal("index walk recorded no lookup time")
	}
	db2, tb2 := buildGraph(t, edges, rel)
	bd2, err := RunJoin(db2, tb2, Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bd2.Sort == 0 {
		t.Fatal("join recorded no sort time")
	}
}
