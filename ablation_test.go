package focus

// Ablation benchmarks for the distiller's two devices from the paper's §2.2,
// relevance-weighted edges and the nepotism filter (DESIGN.md "One plan per
// epoch" says where RunJoin applies them). Each reports the with/without
// metric pair so the contribution of the device can be read straight off
// `go test -bench Ablation`.

import (
	"math/rand"
	"testing"

	"focus/internal/distiller"
	"focus/internal/linkgraph"
	"focus/internal/relstore"
)

// BenchmarkAblationDistillerWeights compares weighted (EF/EB) and classic
// unweighted HITS on the same graph: without weights, endorsement leaks
// into irrelevant authorities (counted via an irrelevance mass metric).
func BenchmarkAblationDistillerWeights(b *testing.B) {
	edges, rel := ablationGraph(7)
	for i := 0; i < b.N; i++ {
		leakW := irrelevantAuthorityMass(b, edges, rel, distiller.Config{Iterations: 4})
		leakU := irrelevantAuthorityMass(b, edges, rel, distiller.Config{Iterations: 4, Unweighted: true, Rho: 0.0001})
		b.ReportMetric(leakW, "weighted-leak")
		b.ReportMetric(leakU, "unweighted-leak")
	}
}

// BenchmarkAblationNepotismFilter compares hub-score concentration with
// and without the same-server filter.
func BenchmarkAblationNepotismFilter(b *testing.B) {
	edges, rel := ablationGraph(8)
	// Add a same-server clique trying to promote one page.
	for s := int64(900); s < 920; s++ {
		edges = append(edges, ablationEdge{src: s, dst: 999, sid: 77, dsid: 77, wF: 0.9, wR: 0.9})
		rel[s] = 0.9
	}
	rel[999] = 0.9
	for i := 0; i < b.N; i++ {
		with := cliqueAuthorityScore(b, edges, rel, distiller.Config{Iterations: 3})
		without := cliqueAuthorityScore(b, edges, rel, distiller.Config{Iterations: 3, NoNepotismFilter: true})
		b.ReportMetric(with, "clique-score-filtered")
		b.ReportMetric(without, "clique-score-unfiltered")
	}
}

type ablationEdge struct {
	src, dst  int64
	sid, dsid int32
	wF, wR    float64
}

func ablationGraph(seed int64) ([]ablationEdge, map[int64]float64) {
	rng := rand.New(rand.NewSource(seed))
	rel := map[int64]float64{}
	for i := int64(0); i < 300; i++ {
		// Half the nodes relevant, half not.
		if i%2 == 0 {
			rel[i] = 0.7 + 0.3*rng.Float64()
		} else {
			rel[i] = 0.05 * rng.Float64()
		}
	}
	var edges []ablationEdge
	for k := 0; k < 2500; k++ {
		src, dst := rng.Int63n(300), rng.Int63n(300)
		if src == dst {
			continue
		}
		edges = append(edges, ablationEdge{
			src: src, dst: dst, sid: int32(src % 29), dsid: int32(dst % 29),
			wF: rel[dst], wR: rel[src],
		})
	}
	return edges, rel
}

// tableLink reads a plain LINK table as distiller.LinkRel: its typed scan
// decodes each tuple the table's own scan returns.
type tableLink struct{ *relstore.Table }

func (l tableLink) ScanEdges(fn func(linkgraph.Edge) (bool, error)) error {
	return l.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) { return fn(linkgraph.EdgeOf(t)) })
}

func buildAblationTables(b *testing.B, edges []ablationEdge, rel map[int64]float64) (*relstore.DB, distiller.Tables) {
	b.Helper()
	db := relstore.Open(relstore.Options{Frames: 1024})
	linkSchema := relstore.NewSchema(
		relstore.Column{Name: "oid_src", Kind: relstore.KInt64},
		relstore.Column{Name: "sid_src", Kind: relstore.KInt32},
		relstore.Column{Name: "oid_dst", Kind: relstore.KInt64},
		relstore.Column{Name: "sid_dst", Kind: relstore.KInt32},
		relstore.Column{Name: "wgt_fwd", Kind: relstore.KFloat64},
		relstore.Column{Name: "wgt_rev", Kind: relstore.KFloat64},
	)
	link, err := db.CreateTable("LINK", linkSchema)
	if err != nil {
		b.Fatal(err)
	}
	crawl, err := db.CreateTable("CRAWL", relstore.NewSchema(
		relstore.Column{Name: "oid", Kind: relstore.KInt64},
		relstore.Column{Name: "relevance", Kind: relstore.KFloat64},
	))
	if err != nil {
		b.Fatal(err)
	}
	crawl.AddIndex("oid", func(t relstore.Tuple) []byte { return relstore.EncodeKey(t[0]) })
	hubs, _ := db.CreateTable("HUBS", distiller.HubsAuthSchema())
	hubs.AddIndex("oid", func(t relstore.Tuple) []byte { return relstore.EncodeKey(t[0]) })
	auth, _ := db.CreateTable("AUTH", distiller.HubsAuthSchema())
	auth.AddIndex("oid", func(t relstore.Tuple) []byte { return relstore.EncodeKey(t[0]) })
	for _, e := range edges {
		_, err := link.Insert(relstore.Tuple{
			relstore.I64(e.src), relstore.I32(e.sid),
			relstore.I64(e.dst), relstore.I32(e.dsid),
			relstore.F64(e.wF), relstore.F64(e.wR),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for oid, r := range rel {
		if _, err := crawl.Insert(relstore.Tuple{relstore.I64(oid), relstore.F64(r)}); err != nil {
			b.Fatal(err)
		}
	}
	return db, distiller.Tables{Link: tableLink{link}, Crawl: crawl, Hubs: hubs, Auth: auth}
}

// irrelevantAuthorityMass runs distillation and returns the authority-score
// mass on truly irrelevant pages.
func irrelevantAuthorityMass(b *testing.B, edges []ablationEdge, rel map[int64]float64, cfg distiller.Config) float64 {
	db, tb := buildAblationTables(b, edges, rel)
	if _, err := distiller.RunJoin(db, tb, cfg); err != nil {
		b.Fatal(err)
	}
	var leak float64
	tb.Auth.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		if rel[t[0].Int()] < 0.3 {
			leak += t[1].Float()
		}
		return false, nil
	})
	return leak
}

// cliqueAuthorityScore returns the score of the clique-promoted page.
func cliqueAuthorityScore(b *testing.B, edges []ablationEdge, rel map[int64]float64, cfg distiller.Config) float64 {
	db, tb := buildAblationTables(b, edges, rel)
	if _, err := distiller.RunJoin(db, tb, cfg); err != nil {
		b.Fatal(err)
	}
	var score float64
	tb.Auth.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		if t[0].Int() == 999 {
			score = t[1].Float()
			return true, nil
		}
		return false, nil
	})
	return score
}
