package classifier

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"focus/internal/relstore"
	"focus/internal/textproc"
)

// TestPosteriorAlwaysNormalized: for arbitrary term vectors — including
// garbage the model never saw — every internal node's children must
// partition its probability mass and the best leaf must be defined.
func TestPosteriorAlwaysNormalized(t *testing.T) {
	m, _ := trainedModel(t, 8)
	rng := rand.New(rand.NewSource(99))
	f := func(words []string, reps uint8) bool {
		counts := map[uint32]int32{}
		for _, w := range words {
			if w == "" {
				continue
			}
			counts[textproc.TermID(w)] = int32(reps%7) + 1
		}
		// Mix in some real vocabulary occasionally.
		if rng.Intn(2) == 0 {
			counts[textproc.TermID("cycling")] = 3
		}
		p := m.Classify(vectorOf(counts))
		if p[m.Tree.Root.ID] != 1 {
			return false
		}
		for _, c0 := range m.Tree.Internal() {
			var sum float64
			for _, k := range c0.Children {
				pr := p[k.ID]
				if math.IsNaN(pr) || pr < 0 || pr > 1+1e-9 {
					return false
				}
				sum += pr
			}
			if math.Abs(sum-p[c0.ID]) > 1e-9 {
				return false
			}
		}
		return m.Tree.Node(m.BestLeaf(p)) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRelevanceMonotoneInGoodSet: enlarging the good set can only increase
// (never decrease) a document's relevance.
func TestRelevanceMonotoneInGoodSet(t *testing.T) {
	m, w := trainedModel(t, 8)
	doc := w.ExampleDocs(m.Tree.ByName("cycling").ID, 1)[0]
	if err := m.Tree.MarkGood(m.Tree.ByName("cycling").ID); err != nil {
		t.Fatal(err)
	}
	r1 := m.Relevance(m.Classify(doc))
	if err := m.Tree.MarkGood(m.Tree.ByName("running").ID); err != nil {
		t.Fatal(err)
	}
	r2 := m.Relevance(m.Classify(doc))
	if r2 < r1-1e-12 {
		t.Fatalf("relevance shrank when good set grew: %.6f -> %.6f", r1, r2)
	}
}

// TestEmptyDocumentFallsBackToPriors: a document with no tokens classifies
// by priors alone, without errors, identically on every access path.
func TestEmptyDocumentFallsBackToPriors(t *testing.T) {
	m, _ := trainedModel(t, 8)
	v := textproc.TermVector{}
	ref := m.Classify(v)
	sql, _, err := m.SingleProbeTimed(v, LayoutSQL)
	if err != nil {
		t.Fatal(err)
	}
	blob, _, err := m.SingleProbeTimed(v, LayoutBLOB)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range ref {
		if math.Abs(sql[id]-want) > 1e-12 || math.Abs(blob[id]-want) > 1e-12 {
			t.Fatalf("paths disagree on empty doc at node %d", id)
		}
	}
	// Priors are honoured: with equal examples per leaf, a subtree with
	// more leaves (business: 4) carries more prior mass than one with
	// fewer (health: 3).
	biz := m.Tree.ByName("business")
	health := m.Tree.ByName("health")
	if ref[biz.ID] <= ref[health.ID] {
		t.Fatalf("prior ordering wrong: business %.4f <= health %.4f",
			ref[biz.ID], ref[health.ID])
	}
}

// TestFeatureSelectionPicksDiscriminators: topic-name terms (the strongest
// discriminators by construction) must be selected at the root.
func TestFeatureSelectionPicksDiscriminators(t *testing.T) {
	m, _ := trainedModel(t, 10)
	feats := map[uint32]bool{}
	for _, n := range m.nodes {
		if n.id != m.Tree.Root.ID {
			continue
		}
		for _, f := range n.feats {
			feats[f.tid] = true
		}
	}
	found := 0
	for _, name := range []string{"recreation", "health", "business", "general"} {
		if feats[textproc.TermID(name)] {
			found++
		}
	}
	if found < 3 {
		t.Fatalf("only %d/4 subtree-name terms selected at root", found)
	}
	// Background words should mostly lose to topical words; check one of
	// the most common background words is present or absent without
	// crashing, and that the budget was respected.
	if len(feats) > 300 {
		t.Fatalf("feature budget exceeded: %d", len(feats))
	}
}

// TestSingleProbeTimedCountsProbes: the instrumentation must count one
// probe per (term, internal node) pair.
func TestSingleProbeTimedCountsProbes(t *testing.T) {
	m, _ := trainedModel(t, 8)
	v := textproc.VectorOfTokens([]string{"cycling", "w0001", "cycling"})
	_, st, err := m.SingleProbeTimed(v, LayoutBLOB)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(v) * len(m.Tree.Internal()))
	if st.Probes != want {
		t.Fatalf("probes = %d, want %d", st.Probes, want)
	}
}

// TestUnmaterializedModelRefusesFigure8Paths: a model Train built but
// Materialize never wrote out classifies in memory, and both layouts of
// SingleProbe and the table BulkClassify return an error instead of
// dereferencing a missing BLOB or returning empty posteriors as a success.
func TestUnmaterializedModelRefusesFigure8Paths(t *testing.T) {
	m, w := train(t, nil, 8)
	v := w.ExampleDocs(m.Tree.ByName("cycling").ID, 1)[0]
	if p := m.Classify(v); p[m.Tree.Root.ID] != 1 {
		t.Fatalf("Classify on an unmaterialized model: root %v", p[m.Tree.Root.ID])
	}
	for _, layout := range []ProbeLayout{LayoutSQL, LayoutBLOB} {
		if _, _, err := m.SingleProbeTimed(v, layout); !errors.Is(err, errUnmaterialized) {
			t.Errorf("SingleProbe layout %d: err %v, want errUnmaterialized", layout, err)
		}
	}
	db := relstore.Open(relstore.Options{Frames: 64})
	doc, err := db.CreateTable("DOCUMENT", DocSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := InsertDoc(doc, 1, v); err != nil {
		t.Fatal(err)
	}
	if post, err := m.BulkClassify(doc, BulkOptions{}); !errors.Is(err, errUnmaterialized) {
		t.Errorf("BulkClassify: %d posteriors, err %v, want errUnmaterialized", len(post), err)
	}
}

// TestTrainingDeterminism: two trainings from the same inputs produce the
// same parameters.
func TestTrainingDeterminism(t *testing.T) {
	m1, w := trainedModel(t, 8)
	m2, _ := trainedModel(t, 8)
	doc := w.ExampleDocs(m1.Tree.ByName("hiv").ID, 1)[0]
	p1 := m1.Classify(doc)
	p2 := m2.Classify(doc)
	for id, want := range p1 {
		if math.Abs(p2[id]-want) > 1e-12 {
			t.Fatalf("nondeterministic training at node %d", id)
		}
	}
}
