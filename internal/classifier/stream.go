package classifier

import "focus/internal/textproc"

// BatchDoc is one document of an in-memory classification batch: the did its
// scratch DOCUMENT rows would carry (a page oid) and its term vector. An
// empty (or nil) vector is a valid document — it classifies to the
// prior-based posterior, exactly like the per-page paths.
type BatchDoc struct {
	DID int64
	Vec textproc.TermVector
}

// BulkClassifyStream classifies a batch of in-memory documents with the
// set-oriented plan of Figure 3, the in-memory counterpart of BulkClassify
// (bench's replay times it against per-page Classify). The batch plays the
// role of the scratch DOCUMENT relation, but it never enters the table
// catalog, so it can run beside monitors that create and drop snapshot
// tables there; instead the batch is pivoted once into a shared build
// side, tid -> (doc, freq) postings, that every internal node's join
// probes:
//
//   - per node, one pass over F(c0) probes the postings — the inner join
//     DOCUMENT ⋈ STAT_c0 on tid, evaluated feature-side, which costs
//     |F(c0)| probes per *batch* where the per-page path costs |terms|
//     lookups per *document* per node;
//   - matched postings accumulate freq*(logtheta + logdenom) into the
//     document's per-child score row and charge every child -freq*logdenom
//     (the PARTIAL / DOCLEN×children split of the Figure 3 outer join,
//     fused: starting each row at the child priors and letting absent
//     children keep the -len*logdenom charge is exactly the
//     lpr2 + coalesce(lpr1, 0) algebra);
//   - the softmax push-down then assigns sibling probabilities, as in every
//     other access path.
//
// Unlike the table-backed BulkClassify, every document in docs gets a
// posterior: a did with no rows (empty vector) is still in the batch and
// falls through to the priors, matching per-page Classify on the same
// vector. Posteriors agree with Classify to floating-point accumulation
// order (the equivalence tests pin 1e-9). dids should be distinct; of
// duplicates the last posterior wins. opt is not read: nothing is sorted or
// spilled.
func (m *Model) BulkClassifyStream(docs []BatchDoc, _ BulkOptions) (map[int64]Posterior, error) {
	// Build side, shared by every node's join: tid -> chain of (doc, freq)
	// postings. The chain is three flat arrays plus one head index per
	// distinct tid — a classic hash-join build with no per-tid allocation.
	n := 0
	for i := range docs {
		n += len(docs[i].Vec)
	}
	head := make(map[uint32]int32, n)
	docOf := make([]int32, 0, n)
	freqOf := make([]float64, 0, n)
	next := make([]int32, 0, n)
	for i := range docs {
		for _, t := range docs[i].Vec {
			idx := int32(len(docOf))
			docOf = append(docOf, int32(i))
			freqOf = append(freqOf, float64(t.Freq))
			if prev, ok := head[t.TID]; ok {
				next = append(next, prev)
			} else {
				next = append(next, -1)
			}
			head[t.TID] = idx
		}
	}
	post := make(map[int64]Posterior, len(docs))
	for i := range docs {
		post[docs[i].DID] = Posterior{m.Tree.Root.ID: 1}
	}
	B := len(docs)
	docLen := make([]float64, B)
	for _, n := range m.nodes {
		kids := n.kids
		K := len(kids)
		pos := make(map[int64]int, K)
		denom := m.denom[n.off : n.off+K]
		prior := m.prior[n.off : n.off+K]
		for i, k := range kids {
			pos[int64(k.ID)] = i
		}
		// One flat (doc x child) score block per node; rows start at the
		// priors (the COMPLETE side's identity element), and DOCLEN — each
		// document's feature-term mass at this node — accumulates on the
		// side so every child's -len*logdenom charge is applied once per
		// document rather than once per matched term.
		L := make([]float64, B*K)
		for d := 0; d < B; d++ {
			copy(L[d*K:(d+1)*K], prior)
		}
		for d := range docLen {
			docLen[d] = 0
		}
		// Probe F(c0) against the postings: each match is one inner-join
		// output row (the PARTIAL side), folded straight into the
		// document's score row. Features are walked in ascending tid order
		// so each row's float accumulation order is fixed.
		for _, ft := range n.feats {
			idx, ok := head[ft.tid]
			if !ok {
				continue
			}
			entries := ft.thetas
			for ; idx >= 0; idx = next[idx] {
				d, f := int(docOf[idx]), freqOf[idx]
				docLen[d] += f
				row := L[d*K : (d+1)*K]
				for _, e := range entries {
					row[pos[int64(e.kcid)]] += f * (e.logTheta + m.logDenom[e.kcid])
				}
			}
		}
		// COMPLETE side and softmax push-down: charge -len*logdenom, then
		// children partition the parent's mass.
		for d := 0; d < B; d++ {
			pr := post[docs[d].DID]
			row := L[d*K : (d+1)*K]
			if l := docLen[d]; l != 0 {
				for i := range row {
					row[i] -= l * denom[i]
				}
			}
			pushDown(pr, pr[n.id], kids, row)
		}
	}
	return post, nil
}
