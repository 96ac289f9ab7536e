package classifier

import (
	"math"
	"testing"

	"focus/internal/relstore"
	"focus/internal/textproc"
)

// TestStreamMatchesClassify is the stream-path face of the central
// cross-implementation property: BulkClassifyStream must produce the same
// posterior per document as the in-memory reference, for every document of
// a batch at once.
func TestStreamMatchesClassify(t *testing.T) {
	m, w := trainedModel(t, 12)
	var docs []BatchDoc
	did := int64(0)
	for _, leaf := range []string{"cycling", "news", "hiv", "databases"} {
		for _, toks := range w.ExampleDocs(m.Tree.ByName(leaf).ID, 6) {
			docs = append(docs, BatchDoc{DID: did, Vec: textproc.VectorOfTokens(toks)})
			did++
		}
	}
	bulk, err := m.BulkClassifyStream(docs, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bulk) != len(docs) {
		t.Fatalf("%d posteriors for %d docs", len(bulk), len(docs))
	}
	for _, d := range docs {
		ref := m.Classify(d.Vec)
		got := bulk[d.DID]
		if got == nil {
			t.Fatalf("no posterior for did %d", d.DID)
		}
		for id, want := range ref {
			if math.Abs(got[id]-want) > 1e-9 {
				t.Fatalf("did %d node %d: stream=%.12f ref=%.12f", d.DID, id, got[id], want)
			}
		}
	}
	// Run-to-run determinism: float accumulation order decides resume
	// bit-identity, so a rerun must reproduce every posterior exactly,
	// not merely within tolerance.
	for rerun := 0; rerun < 10; rerun++ {
		again, err := m.BulkClassifyStream(docs, BulkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			for id, want := range bulk[d.DID] {
				if got := again[d.DID][id]; got != want {
					t.Fatalf("rerun %d did %d node %d: %v, first run %v (diff %g)",
						rerun, d.DID, id, got, want, got-want)
				}
			}
		}
	}
}

// TestStreamClassifiesEmptyAndSingleTermDocs pins the empty-document fix:
// the table-backed BulkClassify cannot see a document whose vector wrote no
// rows (it silently drops it), but the crawl's batch path takes the did set
// explicitly and must classify token-less and near-token-less pages exactly
// as per-page Classify does — the prior-based posterior.
func TestStreamClassifiesEmptyAndSingleTermDocs(t *testing.T) {
	m, _ := trainedModel(t, 10)
	docs := []BatchDoc{
		{DID: 1, Vec: textproc.TermVector{}}, // no tokens at all
		{DID: 2, Vec: nil},                   // nil vector, same contract
		{DID: 3, Vec: textproc.TermVector{{TID: textproc.TermID("zzzznotaword"), Freq: 3}}}, // single non-feature term
		{DID: 4, Vec: textproc.TermVector{{TID: textproc.TermID("cycling"), Freq: 1}}},      // single feature term
	}
	bulk, err := m.BulkClassifyStream(docs, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		ref := m.Classify(d.Vec)
		got := bulk[d.DID]
		if got == nil {
			t.Fatalf("did %d dropped from the batch", d.DID)
		}
		for id, want := range ref {
			if math.Abs(got[id]-want) > 1e-9 {
				t.Fatalf("did %d node %d: stream=%.12f ref=%.12f", d.DID, id, got[id], want)
			}
		}
	}
	// The empty documents specifically must land on the pure prior
	// posterior (root mass pushed down by priors alone).
	prior := m.Classify(textproc.TermVector{})
	bulk, err = m.BulkClassifyStream(docs[:2], BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, did := range []int64{1, 2} {
		for id, want := range prior {
			if math.Abs(bulk[did][id]-want) > 1e-12 {
				t.Fatalf("empty did %d node %d: %.15f, prior %.15f", did, id, bulk[did][id], want)
			}
		}
	}
}

// TestInsertDocsBufMatchesInsertDoc pins the batched DOCUMENT ingest: the
// buffer-reusing bulk loader must write row-for-row what per-row InsertDoc
// writes (same multiset of (did, tid, freq) rows).
func TestInsertDocsBufMatchesInsertDoc(t *testing.T) {
	m, w := trainedModel(t, 8)
	a, err := m.DB.CreateTable("DOC#perrow", DocSchema())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.DB.CreateTable("DOC#bulk", DocSchema())
	if err != nil {
		t.Fatal(err)
	}
	var docs []BatchDoc
	for i, toks := range w.ExampleDocs(m.Tree.ByName("cycling").ID, 5) {
		docs = append(docs, BatchDoc{DID: int64(i + 1), Vec: textproc.VectorOfTokens(toks)})
	}
	docs = append(docs, BatchDoc{DID: 99, Vec: nil}) // empty doc writes nothing
	for _, d := range docs {
		if err := InsertDoc(a, d.DID, d.Vec); err != nil {
			t.Fatal(err)
		}
	}
	if err := InsertDocsBuf(b, docs); err != nil {
		t.Fatal(err)
	}
	if a.Rows() != b.Rows() {
		t.Fatalf("row counts differ: per-row %d, bulk %d", a.Rows(), b.Rows())
	}
	collect := func(tb *relstore.Table) map[[3]int64]int {
		out := map[[3]int64]int{}
		err := tb.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
			out[[3]int64{t[0].Int(), t[1].Int(), t[2].Int()}]++
			return false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ra, rb := collect(a), collect(b)
	if len(ra) != len(rb) {
		t.Fatalf("distinct rows differ: %d vs %d", len(ra), len(rb))
	}
	for k, n := range ra {
		if rb[k] != n {
			t.Fatalf("row %v: per-row count %d, bulk count %d", k, n, rb[k])
		}
	}
}
