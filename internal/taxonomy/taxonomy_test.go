package taxonomy

import "testing"

// buildTestTree makes root -> {recreation -> {cycling, gardening},
// business -> {investing -> {mutualfunds, stocks}}}.
func buildTestTree(t *testing.T) (*Tree, map[string]*Node) {
	t.Helper()
	tr := New()
	rec := tr.MustAdd(tr.Root, "recreation")
	cyc := tr.MustAdd(rec, "cycling")
	gar := tr.MustAdd(rec, "gardening")
	biz := tr.MustAdd(tr.Root, "business")
	inv := tr.MustAdd(biz, "investing")
	mf := tr.MustAdd(inv, "mutualfunds")
	st := tr.MustAdd(inv, "stocks")
	return tr, map[string]*Node{
		"recreation": rec, "cycling": cyc, "gardening": gar,
		"business": biz, "investing": inv, "mutualfunds": mf, "stocks": st,
	}
}

func TestTreeStructure(t *testing.T) {
	tr, n := buildTestTree(t)
	if tr.Len() != 8 {
		t.Fatalf("len = %d", tr.Len())
	}
	if got := n["mutualfunds"].Path(); got != "root/business/investing/mutualfunds" {
		t.Fatalf("path = %q", got)
	}
	if !n["cycling"].IsLeaf() || n["investing"].IsLeaf() {
		t.Fatal("leaf detection broken")
	}
	if tr.ByName("cycling") != n["cycling"] || tr.Node(n["cycling"].ID) != n["cycling"] {
		t.Fatal("lookup broken")
	}
	leaves := tr.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	internal := tr.Internal()
	if internal[0] != tr.Root {
		t.Fatal("internal order must start at root")
	}
	// Parents must precede children.
	pos := map[NodeID]int{}
	for i, nd := range internal {
		pos[nd.ID] = i
	}
	if pos[n["investing"].ID] < pos[n["business"].ID] {
		t.Fatal("topological order violated")
	}
}

func TestAddRejectsDuplicatesAndNilParent(t *testing.T) {
	tr, _ := buildTestTree(t)
	if _, err := tr.Add(tr.Root, "cycling"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := tr.Add(nil, "x"); err == nil {
		t.Fatal("nil parent accepted")
	}
}

func TestMarkGoodAndPath(t *testing.T) {
	tr, n := buildTestTree(t)
	if err := tr.MarkGood(n["mutualfunds"].ID); err != nil {
		t.Fatal(err)
	}
	if tr.Mark(n["mutualfunds"].ID) != MarkGood {
		t.Fatal("good mark missing")
	}
	for _, name := range []string{"investing", "business"} {
		if tr.Mark(n[name].ID) != MarkPath {
			t.Fatalf("%s should be path", name)
		}
	}
	if tr.Mark(tr.Root.ID) != MarkPath {
		t.Fatal("root should be path")
	}
	if tr.Mark(n["cycling"].ID) != MarkNull {
		t.Fatal("cycling should be null")
	}
	if got := tr.Good(); len(got) != 1 || got[0] != n["mutualfunds"] {
		t.Fatalf("good = %v", got)
	}
}

func TestMarkGoodRejectsNesting(t *testing.T) {
	tr, n := buildTestTree(t)
	if err := tr.MarkGood(n["investing"].ID); err != nil {
		t.Fatal(err)
	}
	if err := tr.MarkGood(n["mutualfunds"].ID); err == nil {
		t.Fatal("good under good accepted")
	}
	tr2, n2 := buildTestTree(t)
	if err := tr2.MarkGood(n2["mutualfunds"].ID); err != nil {
		t.Fatal(err)
	}
	if err := tr2.MarkGood(n2["investing"].ID); err == nil {
		t.Fatal("good over good accepted")
	}
	if err := tr2.MarkGood(tr2.Root.ID); err == nil {
		t.Fatal("root marked good")
	}
	if err := tr2.MarkGood(9999); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestSubsumedAndGoodPath(t *testing.T) {
	tr, n := buildTestTree(t)
	tr.MarkGood(n["investing"].ID)
	// Leaves under a good internal node are subsumed.
	if !tr.IsGoodOrSubsumed(n["mutualfunds"].ID) || !tr.IsGoodOrSubsumed(n["stocks"].ID) {
		t.Fatal("subsumed detection broken")
	}
	if tr.IsGoodOrSubsumed(n["cycling"].ID) {
		t.Fatal("cycling wrongly subsumed")
	}
	if tr.Mark(n["business"].ID) != MarkPath || tr.Mark(n["investing"].ID) != MarkGood {
		t.Fatal("good-path marks broken")
	}
	if tr.Mark(n["recreation"].ID) != MarkNull {
		t.Fatal("recreation wrongly on good path")
	}
}

func TestUnmarkRecomputesPaths(t *testing.T) {
	tr, n := buildTestTree(t)
	tr.MarkGood(n["mutualfunds"].ID)
	tr.MarkGood(n["cycling"].ID)
	tr.Unmark(n["mutualfunds"].ID)
	if tr.Mark(n["investing"].ID) != MarkNull || tr.Mark(n["business"].ID) != MarkNull {
		t.Fatal("stale path marks after unmark")
	}
	if tr.Mark(n["recreation"].ID) != MarkPath {
		t.Fatal("surviving good topic lost its path")
	}
	// The §3.7 fix: re-mark the ancestor after unmarking the leaf.
	if err := tr.MarkGood(n["investing"].ID); err != nil {
		t.Fatal(err)
	}
	if !tr.IsGoodOrSubsumed(n["mutualfunds"].ID) {
		t.Fatal("mutualfunds should be subsumed after the fix")
	}
}

func TestMarkString(t *testing.T) {
	if MarkGood.String() != "good" || MarkPath.String() != "path" || MarkNull.String() != "null" {
		t.Fatal("mark names")
	}
}
