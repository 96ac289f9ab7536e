package classifier

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"focus/internal/taxonomy"
	"focus/internal/textproc"
)

// refModel is what the map trainer below builds: the model's parameters
// keyed by node and term, the way Train kept them before it counted over
// a term dictionary.
type refModel struct {
	logPrior, logDenom map[taxonomy.NodeID]float64
	// statsMem: internal node -> tid -> entries in ascending kcid; nil for a
	// node with no training document under it.
	statsMem map[taxonomy.NodeID]map[uint32][]childTheta
	// featTids is statsMem's key set per internal node, ascending.
	featTids     map[taxonomy.NodeID][]uint32
	prior, denom []float64
	termIdx      map[uint32][]nodeTerm
}

// refCoverage records which edge cases of training a reference run met.
type refCoverage struct {
	// emptyChild: a child with no example under it (the 1e-9 prior).
	emptyChild bool
	// internalExamples: an internal node with examples of its own.
	internalExamples bool
	// tieAtCut: the FeaturesPerNode-th and the next candidate tie on
	// mutual information, so the tid decides which is kept.
	tieAtCut bool
	// fewerThanF: FeaturesPerNode above the candidate count.
	fewerThanF bool
	// belowMin, atMin: a term in minDocFreq-1 and one in minDocFreq of the
	// children's documents.
	belowMin, atMin bool
}

// referenceTrain is Train's map-based predecessor, kept as the reference
// Train must match bit for bit: one map of per-term statistics per node,
// a reflective sort of every candidate, and a map of feature counts per
// child. It records the edge cases it meets in cov.
func referenceTrain(tree *taxonomy.Tree, examples Examples, cfg TrainConfig, cov *refCoverage) (*refModel, error) {
	cfg = cfg.withDefaults()
	m := &refModel{
		logPrior: make(map[taxonomy.NodeID]float64),
		logDenom: make(map[taxonomy.NodeID]float64),
		statsMem: make(map[taxonomy.NodeID]map[uint32][]childTheta),
		featTids: make(map[taxonomy.NodeID][]uint32),
	}
	for id := range examples {
		if tree.Node(id) == nil {
			return nil, fmt.Errorf("classifier: examples for unknown topic %d", id)
		}
	}
	var docsUnder func(n *taxonomy.Node) []textproc.TermVector
	memo := make(map[taxonomy.NodeID][]textproc.TermVector)
	docsUnder = func(n *taxonomy.Node) []textproc.TermVector {
		if d, ok := memo[n.ID]; ok {
			return d
		}
		out := append([]textproc.TermVector(nil), examples[n.ID]...)
		for _, c := range n.Children {
			out = append(out, docsUnder(c)...)
		}
		memo[n.ID] = out
		return out
	}
	if len(docsUnder(tree.Root)) == 0 {
		return nil, fmt.Errorf("classifier: no training documents")
	}

	internal := tree.Internal()
	for _, c0 := range internal {
		parentDocs := docsUnder(c0)
		if len(parentDocs) == 0 {
			continue
		}
		cov.internalExamples = cov.internalExamples || len(examples[c0.ID]) > 0
		feats := referenceSelectFeatures(c0, docsUnder, cfg, cov)

		vocab := make(map[uint32]bool)
		for _, d := range parentDocs {
			for _, t := range d {
				vocab[t.TID] = true
			}
		}

		mem := make(map[uint32][]childTheta)
		m.statsMem[c0.ID] = mem
		for _, ci := range c0.Children {
			ciDocs := docsUnder(ci)
			var mass int64
			counts := make(map[uint32]int64)
			for _, d := range ciDocs {
				for _, t := range d {
					if feats[t.TID] {
						counts[t.TID] += int64(t.Freq)
					}
					mass += int64(t.Freq)
				}
			}
			denom := float64(len(vocab)) + float64(mass)
			m.logDenom[ci.ID] = math.Log(denom)
			prior := float64(len(ciDocs)) / float64(len(parentDocs))
			if prior == 0 {
				prior = 1e-9
				cov.emptyChild = true
			}
			m.logPrior[ci.ID] = math.Log(prior)
			for t, n := range counts {
				if n == 0 {
					continue
				}
				lt := math.Log(1+float64(n)) - math.Log(denom)
				mem[t] = append(mem[t], childTheta{kcid: ci.ID, logTheta: lt})
			}
		}
		tids := make([]uint32, 0, len(mem))
		for t := range mem {
			es := mem[t]
			sort.Slice(es, func(i, j int) bool { return es[i].kcid < es[j].kcid })
			mem[t] = es
			tids = append(tids, t)
		}
		slices.Sort(tids)
		m.featTids[c0.ID] = tids
	}
	m.indexTerms(internal)
	return m, nil
}

// referenceSelectFeatures picks the FeaturesPerNode terms with the highest
// mutual information between term presence and child class at node c0.
func referenceSelectFeatures(c0 *taxonomy.Node, docsUnder func(*taxonomy.Node) []textproc.TermVector, cfg TrainConfig, cov *refCoverage) map[uint32]bool {
	type termStat struct {
		df    []int64
		total int64
	}
	nKids := len(c0.Children)
	stats := make(map[uint32]*termStat)
	nDocs := make([]int64, nKids)
	var total int64
	for ki, ci := range c0.Children {
		docs := docsUnder(ci)
		nDocs[ki] = int64(len(docs))
		total += nDocs[ki]
		for _, d := range docs {
			for _, e := range d {
				t := e.TID
				s := stats[t]
				if s == nil {
					s = &termStat{df: make([]int64, nKids)}
					stats[t] = s
				}
				s.df[ki]++
				s.total++
			}
		}
	}
	if total == 0 {
		return map[uint32]bool{}
	}
	type scored struct {
		t  uint32
		mi float64
	}
	var cand []scored
	N := float64(total)
	for t, s := range stats {
		cov.belowMin = cov.belowMin || s.total == minDocFreq-1
		cov.atMin = cov.atMin || s.total == minDocFreq
		if s.total < minDocFreq {
			continue
		}
		pT := float64(s.total) / N
		var mi float64
		for ki := range c0.Children {
			if nDocs[ki] == 0 {
				continue
			}
			pC := float64(nDocs[ki]) / N
			p11 := float64(s.df[ki]) / N
			if p11 > 0 {
				mi += p11 * math.Log(p11/(pT*pC))
			}
			p01 := float64(nDocs[ki]-s.df[ki]) / N
			if p01 > 0 {
				mi += p01 * math.Log(p01/((1-pT)*pC))
			}
		}
		cand = append(cand, scored{t, mi})
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].mi != cand[j].mi {
			return cand[i].mi > cand[j].mi
		}
		return cand[i].t < cand[j].t
	})
	F := cfg.FeaturesPerNode
	cov.fewerThanF = cov.fewerThanF || len(cand) < F
	cov.tieAtCut = cov.tieAtCut || len(cand) > F && cand[F-1].mi == cand[F].mi
	if len(cand) > F {
		cand = cand[:F]
	}
	out := make(map[uint32]bool, len(cand))
	for _, c := range cand {
		out[c.t] = true
	}
	return out
}

// indexTerms lays out the score slots and builds termIdx from statsMem.
func (m *refModel) indexTerms(internal []*taxonomy.Node) {
	m.termIdx = make(map[uint32][]nodeTerm)
	for _, c0 := range internal {
		lo := len(m.prior)
		slot := make(map[taxonomy.NodeID]int, len(c0.Children))
		for i, k := range c0.Children {
			slot[k.ID] = lo + i
			m.prior = append(m.prior, m.logPrior[k.ID])
			m.denom = append(m.denom, m.logDenom[k.ID])
		}
		hi := len(m.prior)
		mem := m.statsMem[c0.ID]
		for _, tid := range m.featTids[c0.ID] {
			var kids []kidTerm
			for _, e := range mem[tid] {
				kids = append(kids, kidTerm{slot: slot[e.kcid], w: e.logTheta + m.logDenom[e.kcid]})
			}
			m.termIdx[tid] = append(m.termIdx[tid], nodeTerm{lo: lo, hi: hi, kids: kids})
		}
	}
}

// diffModel reports the first parameter of m that differs from ref's, or
// "" when every one is equal; floats are compared with ==.
func diffModel(m *Model, ref *refModel) string {
	for _, p := range []struct {
		name     string
		got, ref map[taxonomy.NodeID]float64
	}{{"logPrior", m.logPrior, ref.logPrior}, {"logDenom", m.logDenom, ref.logDenom}} {
		if len(p.got) != len(p.ref) {
			return fmt.Sprintf("%s: %d entries, reference %d", p.name, len(p.got), len(p.ref))
		}
		for id, want := range p.ref {
			if got, ok := p.got[id]; !ok || got != want {
				return fmt.Sprintf("%s[%d] = %v, reference %v", p.name, id, got, want)
			}
		}
	}
	for _, n := range m.nodes {
		mem, tids := ref.statsMem[n.id], ref.featTids[n.id]
		if (mem == nil) != (n.feats == nil) || len(n.feats) != len(tids) {
			return fmt.Sprintf("node %d: %d features (nil %v), reference %d (nil %v)",
				n.id, len(n.feats), n.feats == nil, len(tids), mem == nil)
		}
		for i, f := range n.feats {
			if f.tid != tids[i] || !slices.Equal(f.thetas, mem[f.tid]) {
				return fmt.Sprintf("node %d feature %d: tid %d %v, reference tid %d %v",
					n.id, i, f.tid, f.thetas, tids[i], mem[tids[i]])
			}
		}
	}
	if !slices.Equal(m.prior, ref.prior) || !slices.Equal(m.denom, ref.denom) {
		return fmt.Sprintf("score rows: prior %v denom %v, reference %v %v", m.prior, m.denom, ref.prior, ref.denom)
	}
	if len(m.termIdx) != len(ref.termIdx) {
		return fmt.Sprintf("termIdx: %d terms, reference %d", len(m.termIdx), len(ref.termIdx))
	}
	for tid, want := range ref.termIdx {
		got := m.termIdx[tid]
		if !slices.EqualFunc(got, want, func(a, b nodeTerm) bool {
			return a.lo == b.lo && a.hi == b.hi && slices.Equal(a.kids, b.kids)
		}) {
			return fmt.Sprintf("termIdx[%d] = %v, reference %v", tid, got, want)
		}
	}
	return ""
}

// randomTrainingSet draws a small taxonomy (two to four children of the
// root, half of them with two or three children of their own) and zero to
// three examples a node over a vocabulary of 4 to 13 terms that always
// holds tids 0 and 0xFFFFFFFF. Internal nodes hold examples a third of the
// time; FeaturesPerNode runs from 1 to two above the vocabulary's size.
func randomTrainingSet(rng *rand.Rand) (*taxonomy.Tree, Examples, TrainConfig) {
	tree := taxonomy.New()
	nodes := []*taxonomy.Node{tree.Root}
	for i := range 2 + rng.Intn(3) {
		c := tree.MustAdd(tree.Root, fmt.Sprintf("c%d", i))
		nodes = append(nodes, c)
		if rng.Intn(2) == 0 {
			for j := range 2 + rng.Intn(2) {
				nodes = append(nodes, tree.MustAdd(c, fmt.Sprintf("c%d.%d", i, j)))
			}
		}
	}
	vocab := []uint32{0, math.MaxUint32}
	for n := 4 + rng.Intn(10); len(vocab) < n; {
		vocab = append(vocab, rng.Uint32())
	}
	ex := Examples{}
	for _, n := range nodes {
		if !n.IsLeaf() && rng.Intn(3) != 0 {
			continue
		}
		for range rng.Intn(4) {
			counts := map[uint32]int32{}
			for _, tid := range vocab {
				if rng.Intn(3) == 0 {
					counts[tid] = 1 + rng.Int31n(3)
				}
			}
			ex[n.ID] = append(ex[n.ID], vectorOf(counts))
		}
	}
	return tree, ex, TrainConfig{FeaturesPerNode: 1 + rng.Intn(len(vocab)+2)}
}

// TestTrainMatchesReferenceProperty: on random small example sets Train
// builds the map trainer's model exactly, every float equal, and refuses
// the same sets. The sets must meet every edge case of refCoverage, and
// tids 0 and 0xFFFFFFFF must both be selected somewhere.
func TestTrainMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var cov refCoverage
	var tid0, tidMax bool
	for trial := range 400 {
		tree, ex, cfg := randomTrainingSet(rng)
		ref, refErr := referenceTrain(tree, ex, cfg, &cov)
		m, err := Train(nil, tree, ex, cfg)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("trial %d: Train error %v, reference %v", trial, err, refErr)
		}
		if err != nil {
			continue
		}
		if d := diffModel(m, ref); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
		for _, n := range m.nodes {
			for _, f := range n.feats {
				tid0, tidMax = tid0 || f.tid == 0, tidMax || f.tid == math.MaxUint32
			}
		}
	}
	if want := (refCoverage{true, true, true, true, true, true}); cov != want {
		t.Errorf("edge cases met %+v, want all", cov)
	}
	if !tid0 || !tidMax {
		t.Errorf("tid 0 selected: %v, tid 0xFFFFFFFF selected: %v", tid0, tidMax)
	}
}
