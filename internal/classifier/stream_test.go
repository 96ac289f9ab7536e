package classifier

import (
	"math"
	"testing"

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
		for _, v := range w.ExampleDocs(m.Tree.ByName(leaf).ID, 6) {
			docs = append(docs, BatchDoc{DID: did, Vec: v})
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
// rows (it silently drops it), but the stream path takes the did set
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
