package classifier

import (
	"testing"

	"focus/internal/relstore"
	"focus/internal/textproc"
	"focus/internal/webgraph"
)

// The hot path of a visit after its fetch, one generator document per op,
// on the standard web's pages (~150 tokens, ~120 distinct terms) and the
// doc-heavy web's (~2 400 tokens), against a model trained as the crawl's
// is (25 examples per leaf, default TrainConfig).

var (
	vecSink  textproc.TermVector
	postSink Posterior
)

var benchWebs = []struct {
	name string
	cfg  webgraph.Config
}{
	{"standard", webgraph.Config{NumPages: 500}},
	{"docheavy", webgraph.Config{NumPages: 500, DocLenMean: 2400, BackgroundVocab: 20000, TopicVocab: 240}},
}

// benchFixture trains a model on cfg's web and returns it with 64 fresh
// documents drawn across the leaves, disjoint from the training examples.
func benchFixture(b *testing.B, cfg webgraph.Config) (*Model, [][]string) {
	b.Helper()
	w, err := webgraph.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ex := Examples{}
	var docs [][]string
	for _, leaf := range w.Cfg.Tree.Leaves() {
		all := w.ExampleDocs(leaf.ID, 29)
		ex[leaf.ID] = all[:25]
		docs = append(docs, all[25:]...)
	}
	m, err := Train(nil, w.Cfg.Tree, ex, TrainConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return m, docs[:64]
}

func BenchmarkVectorOfTokens(b *testing.B) {
	for _, bw := range benchWebs {
		b.Run(bw.name, func(b *testing.B) {
			_, docs := benchFixture(b, bw.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vecSink = textproc.VectorOfTokens(docs[i%len(docs)])
			}
		})
	}
}

func BenchmarkClassify(b *testing.B) {
	for _, bw := range benchWebs {
		b.Run(bw.name, func(b *testing.B) {
			m, docs := benchFixture(b, bw.cfg)
			vecs := make([]textproc.TermVector, len(docs))
			for i, d := range docs {
				vecs[i] = textproc.VectorOfTokens(d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postSink = m.Classify(vecs[i%len(vecs)])
			}
		})
	}
}

// BenchmarkInsertDoc writes each document's DOCUMENT rows into a table that
// is dropped and recreated, off the clock, every 256 documents.
func BenchmarkInsertDoc(b *testing.B) {
	for _, bw := range benchWebs {
		b.Run(bw.name, func(b *testing.B) {
			_, docs := benchFixture(b, bw.cfg)
			vecs := make([]textproc.TermVector, len(docs))
			for i, d := range docs {
				vecs[i] = textproc.VectorOfTokens(d)
			}
			db := relstore.Open(relstore.Options{Frames: 4096})
			var doc *relstore.Table
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 0 {
					b.StopTimer()
					if err := db.DropTable("DOCUMENT"); err != nil {
						b.Fatal(err)
					}
					var err error
					if doc, err = db.CreateTable("DOCUMENT", DocSchema()); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := InsertDoc(doc, int64(i), vecs[i%len(vecs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
