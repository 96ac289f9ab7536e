// Package classifier implements the paper's hierarchical naive Bayes
// (Bernoulli/multinomial) text classifier (§2.1): training with feature
// selection and the smoothed parameter estimation of Eq. (1), the in-memory
// Classify the crawl runs on every page, and the three database access
// paths whose I/O behaviour Figure 8 compares — SingleProbeTimed over
// unpacked statistics rows ("SQL"), SingleProbeTimed over packed
// per-(node,term) records ("BLOB"), and the batched sort-merge-join
// BulkClassify ("CLI", the plan of Figure 3). Those three read the relations Model.Materialize writes; tests
// prove all paths compute the same posteriors.
package classifier

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"

	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/textproc"
)

// TrainConfig controls training.
type TrainConfig struct {
	// FeaturesPerNode is |F(c0)|, the number of discriminating terms kept
	// per internal node (default 400).
	FeaturesPerNode int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.FeaturesPerNode <= 0 {
		c.FeaturesPerNode = 400
	}
	return c
}

// minDocFreq drops terms appearing in fewer training documents under a
// node's children from its feature candidates.
const minDocFreq = 2

// childTheta is one sparse statistics entry: child class and log theta.
type childTheta struct {
	kcid     taxonomy.NodeID
	logTheta float64
}

// Model is a trained hierarchical classifier. Train builds it in memory,
// which is all Classify reads. Materialize also writes its statistics into
// a database in Figure 1's STAT_c0 and BLOB layouts, which only the Figure 8
// access paths (SingleProbeTimed, BulkClassify) read; until then DB, StatTables
// and Blob are nil.
type Model struct {
	Tree *taxonomy.Tree
	// DB holds the materialized statistics (nil until Materialize).
	DB *relstore.DB

	// StatTables maps internal node -> its STAT_c0 relation
	// (kcid, tid, logtheta).
	StatTables map[taxonomy.NodeID]*relstore.Table
	// statIndexes are B+tree indexes over STAT_c0 keyed (tid, kcid): the
	// unpacked "SQL" probe path.
	statIndexes map[taxonomy.NodeID]*relstore.Index
	// Blob is the packed index: key (pcid, tid) -> encoded []childTheta.
	Blob *relstore.BTree

	logPrior map[taxonomy.NodeID]float64
	logDenom map[taxonomy.NodeID]float64

	// nodes are the internal nodes in Tree.Internal() (push-down) order,
	// each with its features. Node n's children own score slots
	// n.off … n.off+len(n.kids)-1 of one flat row; prior and denom hold
	// each slot's logprior and logdenom.
	nodes        []classNode
	prior, denom []float64
	// termIdx is the term-major mirror of the nodes' features that Classify
	// probes once per document term: every internal node that selects tid
	// as a feature, in nodes order, with its present children's slots and
	// weights.
	termIdx map[uint32][]nodeTerm
	// leaves are Tree.Leaves() at training, in ID order.
	leaves []*taxonomy.Node
}

// classNode is one internal node of the push-down.
type classNode struct {
	id   taxonomy.NodeID
	kids []*taxonomy.Node
	off  int
	// feats is F(c0) in ascending tid, the only copy of the node's
	// statistics; nil when no training document is under the node.
	feats []feature
}

// feature is one feature term of a node and its STAT_c0 entries: the
// children whose examples hold the term, in ascending kcid.
type feature struct {
	tid    uint32
	thetas []childTheta
}

// nodeTerm is one (feature term, internal node) pair of the term-major
// index: the node's score slots lo … hi-1 and, for each child with a
// STAT_c0 row for the term, its slot and logtheta + logdenom.
type nodeTerm struct {
	lo, hi int
	kids   []kidTerm
}

type kidTerm struct {
	slot int
	w    float64
}

// Examples supplies training documents per leaf topic — the D(c) sets of
// the problem formulation — each as its term vector, the (did, tid, freq)
// rows of §2.1.3 (textproc.VectorOfTokens of its tokens). Train reads the
// vectors and keeps none of the slices.
type Examples map[taxonomy.NodeID][]textproc.TermVector

// Train builds a Model from example documents, in memory only: it writes
// no relation (Materialize does, for Figure 8). The db parameter is unused:
// it is kept because the benchmark module still passes one.
func Train(_ *relstore.DB, tree *taxonomy.Tree, examples Examples, cfg TrainConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	m := &Model{
		Tree:     tree,
		logPrior: make(map[taxonomy.NodeID]float64),
		logDenom: make(map[taxonomy.NodeID]float64),
		leaves:   tree.Leaves(),
	}

	for id := range examples {
		if tree.Node(id) == nil {
			return nil, fmt.Errorf("classifier: examples for unknown topic %d", id)
		}
	}
	// Pool the examples bottom-up: docsUnder(n) is D(n), the union of
	// examples in n's subtree.
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

	tc := newTermCounts(docsUnder(tree.Root))
	for _, c0 := range tree.Internal() {
		n := classNode{id: c0.ID, kids: c0.Children}
		if len(docsUnder(c0)) > 0 {
			n.feats = tc.train(m, c0, examples[c0.ID], docsUnder, cfg.FeaturesPerNode)
		}
		m.nodes = append(m.nodes, n)
	}
	m.indexTerms()
	return m, nil
}

// Materialize writes the model's statistics into db in Figure 1's two
// layouts, which only Figure 8's access paths read: one STAT_c0 relation
// (kcid, tid, logtheta) per internal node with its (tid, kcid) index — the
// unpacked "SQL" layout — and then the BLOB tree keyed (pcid, tid) — the
// packed one. It sets DB, which BulkClassify's sorts spill into. A model
// is materialized at most once per db: the STAT_c0 names are taken.
func (m *Model) Materialize(db *relstore.DB) error {
	statSchema := relstore.NewSchema(
		relstore.Column{Name: "kcid", Kind: relstore.KInt32},
		relstore.Column{Name: "tid", Kind: relstore.KInt64},
		relstore.Column{Name: "logtheta", Kind: relstore.KFloat64},
	)
	stats := make(map[taxonomy.NodeID]*relstore.Table, len(m.nodes))
	indexes := make(map[taxonomy.NodeID]*relstore.Index, len(m.nodes))
	for _, n := range m.nodes {
		if n.feats == nil {
			continue // no training documents under the node: no statistics
		}
		st, err := db.CreateTable("STAT_"+m.Tree.Node(n.id).Name, statSchema)
		if err != nil {
			return err
		}
		order := loadOrder(n.feats)
		for _, ci := range n.kids {
			for _, f := range order {
				for _, e := range f.thetas {
					if e.kcid != ci.ID {
						continue
					}
					row := relstore.Tuple{relstore.I32(int32(ci.ID)), relstore.I64(int64(f.tid)), relstore.F64(e.logTheta)}
					if _, err := st.Insert(row); err != nil {
						return err
					}
				}
			}
		}
		ix, err := st.AddIndex("tid", func(tp relstore.Tuple) []byte {
			return relstore.EncodeKey(tp[1], tp[0])
		})
		if err != nil {
			return err
		}
		stats[n.id], indexes[n.id] = st, ix
	}
	blob, err := relstore.NewBTree(db.Pool())
	if err != nil {
		return err
	}
	for _, n := range m.nodes {
		for _, f := range loadOrder(n.feats) {
			key := relstore.EncodeKey(relstore.I32(int32(n.id)), relstore.I64(int64(f.tid)))
			if err := blob.Insert(key, encodeThetas(f.thetas)); err != nil {
				return err
			}
		}
	}
	m.DB, m.StatTables, m.statIndexes, m.Blob = db, stats, indexes, blob
	return nil
}

// loadOrder is the order Materialize inserts a node's feature terms in: a
// fixed permutation by tid, unrelated to key order. A B+tree node splits in
// half when full, so a load in key order would leave every leaf half full;
// this one fills the trees the way a random-order load does.
func loadOrder(feats []feature) []feature {
	out := slices.Clone(feats)
	slices.SortFunc(out, func(a, b feature) int { return cmp.Compare(a.tid*0x9E3779B1, b.tid*0x9E3779B1) })
	return out
}

// termCounts is Train's scratch, reused at every internal node. The
// examples' distinct tids are numbered in ascending order, so id order is
// tid order; the examples are read in place, each term's id looked up in
// ids.
type termCounts struct {
	ids  map[uint32]int32
	tids []uint32 // id -> tid
	// cells[id*G+g] are term id's document frequency and total frequency
	// over group g of a node's documents: its K children's, then its own
	// examples (G = K+1).
	cells []struct{ df, n int64 }
	cand  []scored
}

// scored is a feature candidate: a term id and its mutual information.
type scored struct {
	id int32
	mi float64
}

// rank is the feature ranking, a total order: mutual information
// descending, then tid ascending (ids are in tid order). Being total, it
// makes the top F the same whatever way they are found.
func rank(a, b scored) int { return cmp.Or(cmp.Compare(b.mi, a.mi), cmp.Compare(a.id, b.id)) }

func newTermCounts(docs []textproc.TermVector) *termCounts {
	tc := &termCounts{ids: make(map[uint32]int32)}
	for _, d := range docs {
		for _, e := range d {
			tc.ids[e.TID] = 0
		}
	}
	tc.tids = slices.Sorted(maps.Keys(tc.ids))
	for i, t := range tc.tids {
		tc.ids[t] = int32(i)
	}
	return tc
}

// train counts the documents under c0 (own are its own examples), sets its
// children's logprior and logdenom of Eq. (1) in m, and returns c0's
// features: the f terms with the highest mutual information between term
// presence and child class, each with its children's logthetas.
func (tc *termCounts) train(m *Model, c0 *taxonomy.Node, own []textproc.TermVector, docsUnder func(*taxonomy.Node) []textproc.TermVector, f int) []feature {
	kids := c0.Children
	K, G := len(kids), len(kids)+1
	if len(tc.cells) < G*len(tc.tids) {
		tc.cells = make([]struct{ df, n int64 }, G*len(tc.tids))
	}
	cells := tc.cells[:G*len(tc.tids)]
	clear(cells)
	nDocs, mass := make([]int64, G), make([]int64, G)
	for g := range G {
		docs := own
		if g < K {
			docs = docsUnder(kids[g])
		}
		nDocs[g] = int64(len(docs))
		for _, d := range docs {
			for _, e := range d {
				c := &cells[int(tc.ids[e.TID])*G+g]
				c.df++
				c.n += int64(e.Freq)
				mass[g] += int64(e.Freq)
			}
		}
	}

	// Rank the terms in at least minDocFreq of the children's documents,
	// keeping the best f in rank order. Ids follow hashed tids, not mutual
	// information, so few candidates enter once the list is full. vocab is
	// |union over D(c0) of {t in d}|, Eq. (1)'s vocabulary size.
	N := float64(len(docsUnder(c0)) - len(own))
	vocab := 0
	best := tc.cand[:0]
	for id := range tc.tids {
		row := cells[id*G : id*G+G]
		var t int64
		for _, c := range row[:K] {
			t += c.df
		}
		if t > 0 || row[K].df > 0 {
			vocab++
		}
		if t < minDocFreq {
			continue
		}
		pT := float64(t) / N
		var mi float64
		for ki := range K {
			if nDocs[ki] == 0 {
				continue
			}
			pC := float64(nDocs[ki]) / N
			// Presence cell.
			p11 := float64(row[ki].df) / N
			if p11 > 0 {
				mi += p11 * math.Log(p11/(pT*pC))
			}
			// Absence cell.
			p01 := float64(nDocs[ki]-row[ki].df) / N
			if p01 > 0 {
				mi += p01 * math.Log(p01/((1-pT)*pC))
			}
		}
		if c := (scored{int32(id), mi}); len(best) < f || rank(c, best[len(best)-1]) < 0 {
			i, _ := slices.BinarySearchFunc(best, c, rank)
			best = slices.Insert(best, i, c)[:min(len(best)+1, f)]
		}
	}
	tc.cand = best
	slices.SortFunc(best, func(a, b scored) int { return cmp.Compare(a.id, b.id) })

	for ki, ci := range kids {
		m.logDenom[ci.ID] = math.Log(float64(vocab) + float64(mass[ki]))
		prior := float64(nDocs[ki]) / float64(len(docsUnder(c0)))
		if prior == 0 {
			prior = 1e-9 // children without examples get a tiny prior
		}
		m.logPrior[ci.ID] = math.Log(prior)
	}
	feats := make([]feature, 0, len(best))
	thetas := make([]childTheta, 0, len(best)*K)
	for _, c := range best {
		start := len(thetas)
		// Children are in ascending kcid: taxonomy numbers them in order.
		for ki, ci := range kids {
			if n := cells[int(c.id)*G+ki].n; n != 0 {
				lt := math.Log(1+float64(n)) - m.logDenom[ci.ID]
				thetas = append(thetas, childTheta{kcid: ci.ID, logTheta: lt})
			}
		}
		if len(thetas) > start {
			feats = append(feats, feature{tid: tc.tids[c.id], thetas: thetas[start:len(thetas):len(thetas)]})
		}
	}
	return feats
}

// indexTerms lays out the internal nodes' score slots and builds termIdx
// from their features, once every node's logprior and logdenom are known.
func (m *Model) indexTerms() {
	m.termIdx = make(map[uint32][]nodeTerm)
	for i := range m.nodes {
		n := &m.nodes[i]
		lo := len(m.prior)
		n.off = lo
		slot := make(map[taxonomy.NodeID]int, len(n.kids))
		for i, k := range n.kids {
			slot[k.ID] = lo + i
			m.prior = append(m.prior, m.logPrior[k.ID])
			m.denom = append(m.denom, m.logDenom[k.ID])
		}
		hi := len(m.prior)
		size := 0
		for _, f := range n.feats {
			size += len(f.thetas)
		}
		flat := make([]kidTerm, 0, size)
		for _, f := range n.feats {
			start := len(flat)
			for _, e := range f.thetas {
				// w is the sum posterior forms per term, formed once: the
				// same float64 addition, so the same bits.
				flat = append(flat, kidTerm{slot: slot[e.kcid], w: e.logTheta + m.logDenom[e.kcid]})
			}
			m.termIdx[f.tid] = append(m.termIdx[f.tid], nodeTerm{lo: lo, hi: hi, kids: flat[start:len(flat):len(flat)]})
		}
	}
}

// NumFeatures reports |F(c0)|, the features selected at an internal node.
func (m *Model) NumFeatures(c0 taxonomy.NodeID) int {
	if i := slices.IndexFunc(m.nodes, func(n classNode) bool { return n.id == c0 }); i >= 0 {
		return len(m.nodes[i].feats)
	}
	return 0
}
