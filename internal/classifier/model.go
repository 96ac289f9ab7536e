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
	"math"
	"slices"
	"sort"

	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/textproc"
)

// TrainConfig controls training.
type TrainConfig struct {
	// FeaturesPerNode is |F(c0)|, the number of discriminating terms kept
	// per internal node (default 400).
	FeaturesPerNode int
	// MinDocFreq drops terms appearing in fewer training documents
	// (default 2).
	MinDocFreq int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.FeaturesPerNode <= 0 {
		c.FeaturesPerNode = 400
	}
	if c.MinDocFreq <= 0 {
		c.MinDocFreq = 2
	}
	return c
}

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
	// statsMem holds the statistics: internal node -> tid -> entries.
	statsMem map[taxonomy.NodeID]map[uint32][]childTheta
	// featTids is statsMem's key set per internal node, ascending: the
	// stream plan accumulates in feature order, and float accumulation
	// order must not vary run to run.
	featTids map[taxonomy.NodeID][]uint32

	// nodes are the internal nodes in Tree.Internal() (push-down) order.
	// Node n's children own score slots n.off … n.off+len(n.kids)-1 of one
	// flat row; prior and denom hold each slot's logprior and logdenom.
	nodes        []classNode
	prior, denom []float64
	// termIdx is the term-major mirror of statsMem that Classify probes once
	// per document term: every internal node that selects tid as a feature,
	// in nodes order, with its present children's slots and weights.
	termIdx map[uint32][]nodeTerm
	// leaves are Tree.Leaves() at training, in ID order.
	leaves []*taxonomy.Node
}

// classNode is one internal node of the push-down.
type classNode struct {
	id   taxonomy.NodeID
	kids []*taxonomy.Node
	off  int
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
		statsMem: make(map[taxonomy.NodeID]map[uint32][]childTheta),
		featTids: make(map[taxonomy.NodeID][]uint32),
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

	internal := tree.Internal()
	for _, c0 := range internal {
		parentDocs := docsUnder(c0)
		if len(parentDocs) == 0 {
			continue
		}
		feats := selectFeatures(c0, docsUnder, cfg)

		// Vocabulary size |union over D(c0) of {t in d}| for Eq (1).
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
				prior = 1e-9 // children without examples get a tiny prior
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
		// Keep per-tid entries in child order for deterministic packing.
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
		mem := m.statsMem[n.id]
		if mem == nil {
			continue // no training documents under the node: no statistics
		}
		st, err := db.CreateTable("STAT_"+m.Tree.Node(n.id).Name, statSchema)
		if err != nil {
			return err
		}
		order := loadOrder(m.featTids[n.id])
		for _, ci := range n.kids {
			for _, t := range order {
				for _, e := range mem[t] {
					if e.kcid != ci.ID {
						continue
					}
					row := relstore.Tuple{relstore.I32(int32(ci.ID)), relstore.I64(int64(t)), relstore.F64(e.logTheta)}
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
		mem := m.statsMem[n.id]
		for _, t := range loadOrder(m.featTids[n.id]) {
			key := relstore.EncodeKey(relstore.I32(int32(n.id)), relstore.I64(int64(t)))
			if err := blob.Insert(key, encodeThetas(mem[t])); err != nil {
				return err
			}
		}
	}
	m.DB, m.StatTables, m.statIndexes, m.Blob = db, stats, indexes, blob
	return nil
}

// loadOrder is the order Materialize inserts a node's feature terms in: a
// fixed permutation of tids, unrelated to key order. A B+tree node splits in
// half when full, so a load in key order would leave every leaf half full;
// this one fills the trees the way a random-order load does.
func loadOrder(tids []uint32) []uint32 {
	out := slices.Clone(tids)
	slices.SortFunc(out, func(a, b uint32) int { return cmp.Compare(a*0x9E3779B1, b*0x9E3779B1) })
	return out
}

// selectFeatures picks the FeaturesPerNode terms with the highest mutual
// information between term presence and child class at node c0.
func selectFeatures(c0 *taxonomy.Node, docsUnder func(*taxonomy.Node) []textproc.TermVector, cfg TrainConfig) map[uint32]bool {
	type termStat struct {
		df    []int64 // per-child document frequency
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
		if s.total < int64(cfg.MinDocFreq) {
			continue
		}
		pT := float64(s.total) / N
		var mi float64
		for ki := range c0.Children {
			if nDocs[ki] == 0 {
				continue
			}
			pC := float64(nDocs[ki]) / N
			// Presence cell.
			p11 := float64(s.df[ki]) / N
			if p11 > 0 {
				mi += p11 * math.Log(p11/(pT*pC))
			}
			// Absence cell.
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
	if len(cand) > cfg.FeaturesPerNode {
		cand = cand[:cfg.FeaturesPerNode]
	}
	out := make(map[uint32]bool, len(cand))
	for _, c := range cand {
		out[c.t] = true
	}
	return out
}

// indexTerms lays out the internal nodes' score slots and builds termIdx
// from statsMem, once every node's logprior and logdenom are known.
func (m *Model) indexTerms(internal []*taxonomy.Node) {
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
		m.nodes = append(m.nodes, classNode{id: c0.ID, kids: c0.Children, off: lo})
		mem := m.statsMem[c0.ID]
		n := 0
		for _, es := range mem {
			n += len(es)
		}
		flat := make([]kidTerm, 0, n)
		for _, tid := range m.featTids[c0.ID] {
			start := len(flat)
			for _, e := range mem[tid] {
				// w is the sum posterior forms per term, formed once: the
				// same float64 addition, so the same bits.
				flat = append(flat, kidTerm{slot: slot[e.kcid], w: e.logTheta + m.logDenom[e.kcid]})
			}
			m.termIdx[tid] = append(m.termIdx[tid], nodeTerm{lo: lo, hi: hi, kids: flat[start:len(flat):len(flat)]})
		}
	}
}

// NumFeatures reports |F(c0)|, the features selected at an internal node.
func (m *Model) NumFeatures(c0 taxonomy.NodeID) int { return len(m.statsMem[c0]) }
