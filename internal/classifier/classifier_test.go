package classifier

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/textproc"
	"focus/internal/webgraph"
)

// trainedModel builds a model over the default synthetic web's taxonomy and
// materializes it into a fresh DB, as Figure 8's fixture does.
func trainedModel(t *testing.T, docsPerLeaf int) (*Model, *webgraph.Web) {
	t.Helper()
	db := relstore.Open(relstore.Options{Frames: 2048})
	m, w := train(t, db, docsPerLeaf)
	if err := m.Materialize(db); err != nil {
		t.Fatal(err)
	}
	return m, w
}

// train trains a model over the default synthetic web's taxonomy, handing
// Train db.
func train(t *testing.T, db *relstore.DB, docsPerLeaf int) (*Model, *webgraph.Web) {
	t.Helper()
	w, err := webgraph.Generate(webgraph.Config{Seed: 11, NumPages: 2000})
	if err != nil {
		t.Fatal(err)
	}
	tree := w.Cfg.Tree
	ex := Examples{}
	for _, leaf := range tree.Leaves() {
		ex[leaf.ID] = w.ExampleDocs(leaf.ID, docsPerLeaf)
	}
	m, err := Train(db, tree, ex, TrainConfig{FeaturesPerNode: 300})
	if err != nil {
		t.Fatal(err)
	}
	return m, w
}

// TestTrainBuildsTables: Train writes nothing into the DB it is handed;
// Materialize writes one indexed STAT_c0 relation per internal node and the
// BLOB tree.
func TestTrainBuildsTables(t *testing.T) {
	disk := relstore.NewMemDisk()
	db := relstore.Open(relstore.Options{Disk: disk, Frames: 2048})
	m, _ := train(t, db, 10)
	if n := disk.NumPages(); n != 0 || m.DB != nil || m.Blob != nil {
		t.Fatalf("Train wrote %d pages (DB set: %v, BLOB set: %v)", n, m.DB != nil, m.Blob != nil)
	}
	if err := m.Materialize(db); err != nil {
		t.Fatal(err)
	}
	for _, c0 := range m.Tree.Internal() {
		st := m.StatTables[c0.ID]
		if st == nil || st.Rows() == 0 || st.Index("tid") == nil {
			t.Fatalf("no indexed STAT table for %s", c0.Name)
		}
		if m.NumFeatures(c0.ID) == 0 {
			t.Fatalf("no features for %s", c0.Name)
		}
		if m.NumFeatures(c0.ID) > 300 {
			t.Fatalf("feature budget exceeded at %s: %d", c0.Name, m.NumFeatures(c0.ID))
		}
	}
	if m.Blob.Len() == 0 {
		t.Fatal("BLOB index empty")
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	db := relstore.Open(relstore.Options{Frames: 64})
	tree := taxonomy.New()
	if _, err := Train(db, tree, Examples{}, TrainConfig{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := Train(db, tree, Examples{999: {textproc.VectorOfTokens([]string{"x"})}}, TrainConfig{}); err == nil {
		t.Fatal("unknown topic accepted")
	}
}

func TestPosteriorIsProbability(t *testing.T) {
	m, w := trainedModel(t, 12)
	cyc := m.Tree.ByName("cycling")
	docs := w.ExampleDocs(cyc.ID, 3)
	for _, d := range docs {
		p := m.Classify(d)
		if got := p[m.Tree.Root.ID]; got != 1 {
			t.Fatalf("root prob = %f", got)
		}
		// Children of every internal node partition the parent's mass.
		for _, c0 := range m.Tree.Internal() {
			var sum float64
			for _, k := range c0.Children {
				pr := p[k.ID]
				if pr < 0 || pr > 1+1e-12 {
					t.Fatalf("prob out of range: %f at %s", pr, k.Name)
				}
				sum += pr
			}
			if math.Abs(sum-p[c0.ID]) > 1e-9 {
				t.Fatalf("children of %s sum to %f, want %f", c0.Name, sum, p[c0.ID])
			}
		}
	}
}

func TestClassifierAccuracyOnFreshDocs(t *testing.T) {
	m, w := trainedModel(t, 15)
	leaves := m.Tree.Leaves()
	correct, total := 0, 0
	for _, leaf := range leaves {
		// Fresh docs: different index range than any training call above.
		for _, d := range w.ExampleDocs(leaf.ID, 40)[30:] {
			p := m.Classify(d)
			if m.BestLeaf(p) == leaf.ID {
				correct++
			}
			total++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.7 {
		t.Fatalf("accuracy %.2f too low", acc)
	}
}

func TestRelevanceSoftFocus(t *testing.T) {
	m, w := trainedModel(t, 12)
	cyc := m.Tree.ByName("cycling")
	if err := m.Tree.MarkGood(cyc.ID); err != nil {
		t.Fatal(err)
	}
	onTopic := w.ExampleDocs(cyc.ID, 5)
	offTopic := w.ExampleDocs(m.Tree.ByName("news").ID, 5)
	var rOn, rOff float64
	for i := range onTopic {
		rOn += m.Relevance(m.Classify(onTopic[i]))
		rOff += m.Relevance(m.Classify(offTopic[i]))
	}
	rOn /= 5
	rOff /= 5
	if rOn < 0.5 {
		t.Fatalf("on-topic relevance %.3f too low", rOn)
	}
	if rOff > 0.1 {
		t.Fatalf("off-topic relevance %.3f too high", rOff)
	}
	// Marking an internal node good must cover its leaves (the §3.7 fix).
	m.Tree.Unmark(cyc.ID)
	if err := m.Tree.MarkGood(m.Tree.ByName("recreation").ID); err != nil {
		t.Fatal(err)
	}
	r := m.Relevance(m.Classify(onTopic[0]))
	if r < 0.5 {
		t.Fatalf("internal-good relevance %.3f too low", r)
	}
}

// TestAllPathsAgree is the central cross-implementation property: the
// in-memory reference, both SingleProbe layouts, and BulkProbe must produce
// identical posteriors.
func TestAllPathsAgree(t *testing.T) {
	m, w := trainedModel(t, 12)
	docDB := m.DB
	doc, err := docDB.CreateTable("DOCUMENT", DocSchema())
	if err != nil {
		t.Fatal(err)
	}
	var vecs []textproc.TermVector
	var dids []int64
	did := int64(0)
	for _, leaf := range []string{"cycling", "news", "hiv", "databases"} {
		for _, v := range w.ExampleDocs(m.Tree.ByName(leaf).ID, 6) {
			vecs = append(vecs, v)
			dids = append(dids, did)
			if err := InsertDoc(doc, did, v); err != nil {
				t.Fatal(err)
			}
			did++
		}
	}
	bulk, err := m.BulkClassify(doc, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		ref := m.Classify(v)
		sql, _, err := m.SingleProbeTimed(v, LayoutSQL)
		if err != nil {
			t.Fatal(err)
		}
		blob, _, err := m.SingleProbeTimed(v, LayoutBLOB)
		if err != nil {
			t.Fatal(err)
		}
		bk := bulk[dids[i]]
		if bk == nil {
			t.Fatalf("bulk missed did %d", dids[i])
		}
		for id, want := range ref {
			for name, got := range map[string]float64{
				"sql": sql[id], "blob": blob[id], "bulk": bk[id],
			} {
				if math.Abs(got-want) > 1e-6 {
					t.Fatalf("doc %d node %d: %s=%.12f ref=%.12f",
						i, id, name, got, want)
				}
			}
		}
	}
}

func TestBulkClassifyHandlesFeaturelessDoc(t *testing.T) {
	m, _ := trainedModel(t, 10)
	doc, err := m.DB.CreateTable("DOCUMENT", DocSchema())
	if err != nil {
		t.Fatal(err)
	}
	// A document whose single term is (almost surely) no feature anywhere.
	v := textproc.TermVector{{TID: textproc.TermID("zzzznotaword"), Freq: 3}}
	if err := InsertDoc(doc, 1, v); err != nil {
		t.Fatal(err)
	}
	bulk, err := m.BulkClassify(doc, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := m.Classify(v)
	for id, want := range ref {
		if math.Abs(bulk[1][id]-want) > 1e-9 {
			t.Fatalf("node %d: bulk=%.9f ref=%.9f", id, bulk[1][id], want)
		}
	}
}

func TestBestLeaf(t *testing.T) {
	m, w := trainedModel(t, 12)
	hiv := m.Tree.ByName("hiv")
	d := w.ExampleDocs(hiv.ID, 1)[0]
	if got := m.BestLeaf(m.Classify(d)); got != hiv.ID {
		t.Fatalf("best leaf = %v, want hiv", m.Tree.Node(got).Name)
	}
}

func TestThetaRecordRoundTrip(t *testing.T) {
	in := []childTheta{{kcid: 3, logTheta: -1.5}, {kcid: 9, logTheta: -0.25}}
	out := decodeThetas(encodeThetas(in))
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: %v", out)
	}
	if got := decodeThetas(encodeThetas(nil)); len(got) != 0 {
		t.Fatalf("empty round trip: %v", got)
	}
}

func TestProbeIOCounts(t *testing.T) {
	// The SQL layout must do strictly more index work than BLOB for the
	// same document: it pays a range scan plus one heap fetch per child
	// entry where BLOB pays a single point probe.
	m, w := trainedModel(t, 12)
	d := w.ExampleDocs(m.Tree.ByName("cycling").ID, 1)[0]
	pool := m.DB.Pool()

	pool.ResetStats()
	if _, _, err := m.SingleProbeTimed(d, LayoutBLOB); err != nil {
		t.Fatal(err)
	}
	blobTouches := pool.Stats().Hits + pool.Stats().Misses

	pool.ResetStats()
	if _, _, err := m.SingleProbeTimed(d, LayoutSQL); err != nil {
		t.Fatal(err)
	}
	sqlTouches := pool.Stats().Hits + pool.Stats().Misses

	if sqlTouches <= blobTouches {
		t.Fatalf("SQL touches (%d) should exceed BLOB touches (%d)",
			sqlTouches, blobTouches)
	}
}

// vectorOf builds a term vector from tid counts, in the ascending tid order
// VectorOfTokens builds.
func vectorOf(counts map[uint32]int32) textproc.TermVector {
	v := make(textproc.TermVector, 0, len(counts))
	for tid, f := range counts {
		v = append(v, textproc.Term{TID: tid, Freq: f})
	}
	slices.SortFunc(v, func(a, b textproc.Term) int { return cmp.Compare(a.TID, b.TID) })
	return v
}

// TestClassifyFeatureSideWalkIsBitIdentical: Classify makes one term-major
// probe per document term and fills every node's scores at once; SingleProbe
// walks the document once per node, probing the database. Each node's
// scores see the same float operations in the same ascending-tid order, so
// every posterior must be equal to the last bit, on both layouts, whatever
// the document: empty, one term in or out of every F(c0), a page with fewer
// terms than a node has features, a pooled vector with more, and random
// vectors mixing vocabulary with garbage.
func TestClassifyFeatureSideWalkIsBitIdentical(t *testing.T) {
	m, w := trainedModel(t, 10)
	same := func(v textproc.TermVector) error {
		got := m.Classify(v)
		for _, layout := range []ProbeLayout{LayoutBLOB, LayoutSQL} {
			ref, _, err := m.SingleProbeTimed(v, layout)
			if err != nil {
				return err
			}
			if len(got) != len(ref) {
				return fmt.Errorf("layout %d: %d nodes, SingleProbe has %d", layout, len(got), len(ref))
			}
			for id, want := range ref {
				if g, ok := got[id]; !ok || g != want {
					return fmt.Errorf("layout %d node %d: Classify %v, SingleProbe %v (diff %g)", layout, id, g, want, g-want)
				}
			}
		}
		return nil
	}
	pooled := map[uint32]int32{}
	for _, leaf := range m.Tree.Leaves() {
		for _, v := range w.ExampleDocs(leaf.ID, 4) {
			for _, t := range v {
				pooled[t.TID] += t.Freq
			}
		}
	}
	cases := []struct {
		name string
		v    textproc.TermVector
	}{
		{"empty", nil},
		{"non-feature", textproc.VectorOfTokens([]string{"zzzznotaword", "zzzznotaword"})},
		{"feature", textproc.VectorOfTokens([]string{"cycling"})},
		{"page", w.ExampleDocs(m.Tree.ByName("cycling").ID, 1)[0]},
		{"pooled", vectorOf(pooled)},
	}
	root := m.Tree.Root.ID
	if n := len(cases[3].v); n >= m.NumFeatures(root) {
		t.Fatalf("page has %d terms, root %d features: want fewer terms", n, m.NumFeatures(root))
	}
	for _, c0 := range m.Tree.Internal() {
		if n := m.NumFeatures(c0.ID); n >= len(cases[4].v) {
			t.Fatalf("%s has %d features, pooled vector only %d terms", c0.Name, n, len(cases[4].v))
		}
	}
	for _, c := range cases {
		if err := same(c.v); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	vocab := w.ExampleDocs(m.Tree.ByName("hiv").ID, 1)[0]
	f := func(words []string, picks []uint16, reps uint8) bool {
		counts := map[uint32]int32{}
		for _, w := range words {
			counts[textproc.TermID(w)] += int32(reps%5) + 1
		}
		for _, p := range picks {
			counts[vocab[int(p)%len(vocab)].TID]++
		}
		err := same(vectorOf(counts))
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathAllocs gates the per-visit allocations of a ~120-term page
// (135 distinct terms). With map vectors, per-node walks and re-sorted tids
// Classify made 21 allocations and InsertDoc 3; now Classify makes its score
// row and the returned posterior map (four on Go 1.24), and InsertDoc only
// what the heap does.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m, w := trainedModel(t, 10)
	v := w.ExampleDocs(m.Tree.ByName("cycling").ID, 1)[0]
	if a := testing.AllocsPerRun(100, func() { m.Classify(v) }); a > 5 {
		t.Errorf("Classify: %v allocations, want <= 5", a)
	}
	doc, err := m.DB.CreateTable("DOCUMENT", DocSchema())
	if err != nil {
		t.Fatal(err)
	}
	did := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		did++
		if err := InsertDoc(doc, did, v); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Errorf("InsertDoc: %v allocations, want <= 2", a)
	}
}

// TestTrainAllocs gates training's allocations on the doc-heavy web's
// example set (23 leaves x 25 documents, ~20 000 distinct terms). Counting
// over a term dictionary allocates its table and arrays once a call and a
// feature list a node, ~3 100 objects in all; the map trainer it replaced
// made ~243 500 (a map entry, a df slice and a count per term and node).
func TestTrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w, err := webgraph.Generate(benchWebs[1].cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := crawlExamples(w)
	if a := testing.AllocsPerRun(2, func() {
		if _, err := Train(nil, w.Cfg.Tree, ex, TrainConfig{}); err != nil {
			t.Fatal(err)
		}
	}); a > 5000 {
		t.Errorf("Train: %v allocations, want <= 5000", a)
	}
}
