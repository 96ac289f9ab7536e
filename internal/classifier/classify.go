package classifier

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"time"

	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/textproc"
)

// Posterior maps taxonomy nodes to Pr[node | document]. The root always has
// probability 1 and each internal node's children partition its mass.
type Posterior map[taxonomy.NodeID]float64

// BestLeaf returns the highest-probability leaf (the paper's best-matching
// class c*, stored in CRAWL.kcid).
func (m *Model) BestLeaf(p Posterior) taxonomy.NodeID {
	best := taxonomy.NodeID(0)
	bestP := -1.0
	for _, leaf := range m.leaves {
		if pr := p[leaf.ID]; pr > bestP {
			best, bestP = leaf.ID, pr
		}
	}
	return best
}

// Relevance computes the soft-focus relevance of Eq (3):
// R(d) = sum over good topics c of Pr[c|d].
func (m *Model) Relevance(p Posterior) float64 {
	var r float64
	for _, g := range m.Tree.Good() {
		r += p[g.ID]
	}
	if r > 1 {
		r = 1
	}
	return r
}

// thetaLookup resolves the sparse statistics entries for (c0, tid), or
// ok=false when tid is not a feature term of c0.
type thetaLookup func(c0 taxonomy.NodeID, tid uint32) (entries []childTheta, ok bool, err error)

// posterior runs the recursive descent of §2.1.1 the way Figure 2's
// pseudocode does, one statistics probe per (document term, internal node):
// at each internal node, accumulate per-child log-likelihoods over the
// document's feature terms (present entries add freq*logtheta, absent
// children pay freq*(-logdenom)), normalize so sibling probabilities sum to
// the parent's, and push down. Terms are visited in the vector's ascending
// tid order: float accumulation is order-sensitive at the ulp level, and a
// crawl resumed from a checkpoint can only replay bit-identically if
// classification is deterministic.
func (m *Model) posterior(v textproc.TermVector, lookup thetaLookup) (Posterior, error) {
	post := make(Posterior, m.Tree.Len())
	post[m.Tree.Root.ID] = 1
	for _, n := range m.nodes {
		L := slices.Clone(m.prior[n.off : n.off+len(n.kids)])
		pos := make(map[taxonomy.NodeID]int, len(n.kids))
		for i, k := range n.kids {
			pos[k.ID] = i
		}
		for _, t := range v {
			entries, ok, err := lookup(n.id, t.TID)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue // t not in F(c0)
			}
			f := float64(t.Freq)
			// All children pay the absent-term denominator; present
			// children get it refunded inside logtheta's rewrite
			// (the inner + outer join trick of Figure 3). The explicit
			// float64 conversions forbid fusing into an FMA, which
			// Classify's loop must match bit for bit.
			for i, k := range n.kids {
				L[i] -= float64(f * m.logDenom[k.ID])
			}
			for _, e := range entries {
				L[pos[e.kcid]] += float64(f * (e.logTheta + m.logDenom[e.kcid]))
			}
		}
		pushDown(post, post[n.id], n.kids, L)
	}
	return post, nil
}

// pushDown assigns each child its share of the parent's mass:
// parentP * exp(L[i]) / sum_j exp(L[j]), max-shifted for stability.
func pushDown(post Posterior, parentP float64, kids []*taxonomy.Node, L []float64) {
	maxL := L[0]
	for _, l := range L[1:] {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for _, l := range L {
		sum += math.Exp(l - maxL)
	}
	for i, k := range kids {
		post[k.ID] = parentP * (math.Exp(L[i]-maxL) / sum)
	}
}

// Classify is the in-memory path the crawler's hot loop uses; the DB paths
// below must agree with it exactly (see tests). It probes the term-major
// index once per document term and adds that term's contribution to every
// internal node that selects it, in one row of scores, then pushes down.
// Each node's scores see exactly posterior's float operations in the same
// ascending-tid order, so the two are bit-identical.
func (m *Model) Classify(v textproc.TermVector) Posterior {
	L := slices.Clone(m.prior)
	for _, t := range v {
		hits, ok := m.termIdx[t.TID]
		if !ok {
			continue
		}
		f := float64(t.Freq)
		for _, h := range hits {
			row, den := L[h.lo:h.hi], m.denom[h.lo:h.hi]
			for i := range row {
				row[i] -= float64(f * den[i])
			}
			for _, e := range h.kids {
				L[e.slot] += float64(f * e.w)
			}
		}
	}
	post := make(Posterior, m.Tree.Len())
	post[m.Tree.Root.ID] = 1
	for _, n := range m.nodes {
		pushDown(post, post[n.id], n.kids, L[n.off:n.off+len(n.kids)])
	}
	return post
}

// ClassifyTokens tokenizes nothing (tokens are given) and classifies.
func (m *Model) ClassifyTokens(tokens []string) Posterior {
	return m.Classify(textproc.VectorOfTokens(tokens))
}

// ProbeLayout selects a SingleProbe statistics layout (Figure 8a's bars).
type ProbeLayout int

const (
	// LayoutSQL probes the unpacked STAT_c0 index: one index range probe
	// per (document term, node), then one heap fetch per matching child
	// row. This is the paper's slow "SQL" variant.
	LayoutSQL ProbeLayout = iota
	// LayoutBLOB probes the packed BLOB index: one probe per (document
	// term, node) returning all children at once.
	LayoutBLOB
)

// errUnmaterialized is what Figure 8's access paths return for a model whose
// statistics Materialize has not written into a database.
var errUnmaterialized = errors.New("classifier: model not materialized")

// SingleProbe classifies one document through the database, issuing index
// probes per term exactly as Figure 2's pseudocode does.
func (m *Model) SingleProbe(v textproc.TermVector, layout ProbeLayout) (Posterior, error) {
	p, _, err := m.SingleProbeTimed(v, layout)
	return p, err
}

// ProbeStats decomposes a SingleProbe run for the Figure 8(a) bars: time
// spent probing the statistics versus everything else (CPU).
type ProbeStats struct {
	Probes    int64
	ProbeTime time.Duration
}

// SingleProbeTimed is SingleProbe with per-probe instrumentation.
func (m *Model) SingleProbeTimed(v textproc.TermVector, layout ProbeLayout) (Posterior, ProbeStats, error) {
	var st ProbeStats
	if m.DB == nil {
		return nil, st, errUnmaterialized
	}
	base := m.lookupSQL
	if layout == LayoutBLOB {
		base = m.lookupBlob
	}
	p, err := m.posterior(v, func(c0 taxonomy.NodeID, tid uint32) ([]childTheta, bool, error) {
		t0 := time.Now()
		es, ok, err := base(c0, tid)
		st.ProbeTime += time.Since(t0)
		st.Probes++
		return es, ok, err
	})
	return p, st, err
}

func (m *Model) lookupBlob(c0 taxonomy.NodeID, tid uint32) ([]childTheta, bool, error) {
	key := relstore.EncodeKey(relstore.I32(int32(c0)), relstore.I64(int64(tid)))
	val, ok, err := m.Blob.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	return decodeThetas(val), true, nil
}

func (m *Model) lookupSQL(c0 taxonomy.NodeID, tid uint32) ([]childTheta, bool, error) {
	ix := m.statIndexes[c0]
	st := m.StatTables[c0]
	if ix == nil || st == nil {
		return nil, false, nil
	}
	var out []childTheta
	prefix := relstore.EncodeKey(relstore.I64(int64(tid)))
	err := ix.ScanPrefix(prefix, func(_ []byte, rid relstore.RID) (bool, error) {
		row, err := st.Get(rid)
		if err != nil {
			return true, err
		}
		out = append(out, childTheta{
			kcid:     taxonomy.NodeID(row[0].Int()),
			logTheta: row[2].Float(),
		})
		return false, nil
	})
	if err != nil {
		return nil, false, err
	}
	return out, len(out) > 0, nil
}

// encodeThetas packs childTheta entries into a BLOB record:
// u16 count, then per entry i32 kcid + f64 logtheta.
func encodeThetas(es []childTheta) []byte {
	out := make([]byte, 2+12*len(es))
	binary.LittleEndian.PutUint16(out, uint16(len(es)))
	off := 2
	for _, e := range es {
		binary.LittleEndian.PutUint32(out[off:], uint32(int32(e.kcid)))
		binary.LittleEndian.PutUint64(out[off+4:], math.Float64bits(e.logTheta))
		off += 12
	}
	return out
}

func decodeThetas(b []byte) []childTheta {
	n := int(binary.LittleEndian.Uint16(b))
	out := make([]childTheta, n)
	off := 2
	for i := 0; i < n; i++ {
		out[i] = childTheta{
			kcid:     taxonomy.NodeID(int32(binary.LittleEndian.Uint32(b[off:]))),
			logTheta: math.Float64frombits(binary.LittleEndian.Uint64(b[off+4:])),
		}
		off += 12
	}
	return out
}
