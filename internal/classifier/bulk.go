package classifier

import (
	"fmt"
	"sort"

	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/textproc"
)

// DocSchema is the DOCUMENT relation of Figure 1: (did, tid, freq). The
// crawl keeps none; Figure 8's fixture does, and BulkClassify classifies a
// whole batch of its documents with two joins per internal node instead of
// per-term index probes.
func DocSchema() *relstore.Schema {
	return relstore.NewSchema(
		relstore.Column{Name: "did", Kind: relstore.KInt64},
		relstore.Column{Name: "tid", Kind: relstore.KInt64},
		relstore.Column{Name: "freq", Kind: relstore.KInt32},
	)
}

// InsertDoc appends one document's term vector to a DOCUMENT table (Figure
// 8's fixture) in the vector's ascending tid order, so the stored row order
// (and everything downstream that sums in row order) is deterministic. The
// rows go in as one batch (Table.InsertBatch) — the heap's tail page is
// pinned once for as many rows as it takes, not once per row — so the
// caller must hold whatever serializes the table, as for Insert.
func InsertDoc(tb *relstore.Table, did int64, v textproc.TermVector) error {
	b := tb.Batch()
	row := relstore.Tuple{relstore.I64(did), relstore.I64(0), relstore.I32(0)}
	for _, t := range v {
		row[1], row[2] = relstore.I64(int64(t.TID)), relstore.I32(t.Freq)
		if err := b.Add(row); err != nil {
			return err
		}
	}
	return tb.InsertBatch(b)
}

// BulkOptions tunes BulkClassify and BulkClassifyStream.
type BulkOptions struct {
	// SortMem is the external-sort workspace in bytes (0 = relstore
	// default). Figure 8(b) sweeps this together with the buffer pool.
	SortMem int
}

// BulkClassify evaluates the posterior of every document in the DOCUMENT
// table, visiting internal taxonomy nodes in topological order and running
// the Figure 3 plan (one inner join + one left outer join) at each: Figure
// 8's bulk path, over the STAT_c0 relations Materialize wrote (a model it
// has not written out is an error). It returns posteriors keyed by did. A
// document is only as visible as its rows: a did with no DOCUMENT rows at
// all cannot be seen by a table scan and gets no posterior — callers
// classifying a batch that may contain token-less documents must use
// BulkClassifyStream, which takes the did set explicitly and classifies
// empty vectors to the prior-based posterior exactly as the per-page paths
// do.
func (m *Model) BulkClassify(doc *relstore.Table, opt BulkOptions) (map[int64]Posterior, error) {
	if m.DB == nil {
		return nil, errUnmaterialized
	}
	post := make(map[int64]Posterior)
	err := doc.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		did := t[0].Int()
		if post[did] == nil {
			post[did] = Posterior{m.Tree.Root.ID: 1}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	// Sort DOCUMENT by tid once and reuse the sorted stream at every
	// internal node — the shared access path a DB2 plan would keep as a
	// sorted temporary across the per-node join calls.
	docIt, err := doc.Iter()
	if err != nil {
		return nil, err
	}
	sorted, err := relstore.SortByCols(m.DB.Pool(), doc.Schema, docIt, opt.SortMem, "tid")
	if err != nil {
		return nil, err
	}
	docByTid, err := relstore.Collect(sorted)
	if err != nil {
		return nil, err
	}
	for _, c0 := range m.Tree.Internal() {
		if len(c0.Children) == 0 || m.StatTables[c0.ID] == nil {
			continue
		}
		statRows, err := m.statSortedByTid(c0.ID)
		if err != nil {
			return nil, err
		}
		scores, err := m.bulkNode(docByTid, statRows, c0, opt)
		if err != nil {
			return nil, err
		}
		priors := make([]float64, len(c0.Children))
		for i, k := range c0.Children {
			priors[i] = m.logPrior[k.ID]
		}
		for did, p := range post {
			// Documents with no feature terms at c0 fall back to priors,
			// matching the per-document paths exactly.
			L := scores[did]
			if L == nil {
				L = priors
			}
			pushDown(p, p[c0.ID], c0.Children, L)
		}
	}
	return post, nil
}

// bulkNode computes, for every document, the per-child log scores at c0
// (logprior included) using the SQL of Figure 3:
//
//	PARTIAL(did, kcid, lpr1) = DOCUMENT join STAT_c0 on tid,
//	    sum(freq * (logtheta + logdenom)) group by did, kcid
//	DOCLEN(did, len) = sum(freq) over DOCUMENT where tid in STAT_c0
//	COMPLETE(did, kcid, lpr2) = DOCLEN x children: -len * logdenom
//	result = COMPLETE left outer join PARTIAL: lpr2 + coalesce(lpr1, 0)
//
// statRows is STAT_c0 sorted by (tid, kcid), materialized by the caller.
func (m *Model) bulkNode(docByTid, statRows []relstore.Tuple, c0 *taxonomy.Node, opt BulkOptions) (map[int64][]float64, error) {
	bp := m.DB.Pool()
	kids := c0.Children
	kidPos := make(map[int64]int, len(kids))
	for i, k := range kids {
		kidPos[int64(k.ID)] = i
	}

	// Inner merge join on tid. Left row (did,tid,freq), right (kcid,tid,logtheta).
	joined := relstore.MergeJoin(
		relstore.NewSliceIter(docByTid), relstore.NewSliceIter(statRows),
		relstore.KeyOfCols(1), relstore.KeyOfCols(1),
		false, 0,
	)
	// Project to (did, kcid, freq*(logtheta+logdenom)).
	partialIn := relstore.MapIter(joined, func(t relstore.Tuple) relstore.Tuple {
		did, freq := t[0], t[2].Float()
		kcid := t[3]
		lt := t[5].Float()
		contrib := freq * (lt + m.logDenom[taxonomy.NodeID(kcid.Int())])
		return relstore.Tuple{did, relstore.I64(kcid.Int()), relstore.F64(contrib)}
	})
	partialSchema := relstore.NewSchema(
		relstore.Column{Name: "did", Kind: relstore.KInt64},
		relstore.Column{Name: "kcid", Kind: relstore.KInt64},
		relstore.Column{Name: "contrib", Kind: relstore.KFloat64},
	)
	partialSorted, err := relstore.SortByCols(bp, partialSchema, partialIn, opt.SortMem, "did", "kcid")
	if err != nil {
		return nil, err
	}
	partial := relstore.GroupBy(partialSorted, relstore.KeyOfCols(0, 1), []int{0, 1}, []int{2})

	// DOCLEN: distinct feature tids, semi-joined against DOCUMENT.
	distinctTids := distinctCol(statRows, 1)
	semi := relstore.MergeJoin(
		relstore.NewSliceIter(docByTid), relstore.NewSliceIter(distinctTids),
		relstore.KeyOfCols(1), relstore.KeyOfCols(0),
		false, 0,
	)
	lenIn := relstore.MapIter(semi, func(t relstore.Tuple) relstore.Tuple {
		return relstore.Tuple{t[0], relstore.F64(t[2].Float())}
	})
	lenSchema := relstore.NewSchema(
		relstore.Column{Name: "did", Kind: relstore.KInt64},
		relstore.Column{Name: "len", Kind: relstore.KFloat64},
	)
	lenSorted, err := relstore.SortByCols(bp, lenSchema, lenIn, opt.SortMem, "did")
	if err != nil {
		return nil, err
	}
	doclen := relstore.GroupBy(lenSorted, relstore.KeyOfCols(0), []int{0}, []int{1})

	// COMPLETE: DOCLEN x children, already sorted by (did, kcid) because
	// doclen streams in did order and children are emitted in kcid order.
	sortedKids := append([]*taxonomy.Node(nil), kids...)
	sort.Slice(sortedKids, func(i, j int) bool { return sortedKids[i].ID < sortedKids[j].ID })
	complete := &crossKidsIter{in: doclen, kids: sortedKids, logDenom: m.logDenom}

	// Left outer merge join COMPLETE with PARTIAL on (did, kcid).
	final := relstore.MergeJoin(complete, partial,
		relstore.KeyOfCols(0, 1), relstore.KeyOfCols(0, 1),
		true, 3,
	)

	out := make(map[int64][]float64)
	for {
		t, ok, err := final.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		did := t[0].Int()
		ki, known := kidPos[t[1].Int()]
		if !known {
			return nil, fmt.Errorf("classifier: unknown kcid %d at %s", t[1].Int(), c0.Name)
		}
		lpr := t[2].Float() // lpr2 = -len*logdenom
		if !t[5].IsNull() {
			lpr += t[5].Float() // coalesce(lpr1, 0)
		}
		L := out[did]
		if L == nil {
			L = make([]float64, len(kids))
			for i, k := range kids {
				L[i] = m.logPrior[k.ID]
			}
			out[did] = L
		}
		L[ki] += lpr
	}
	// Documents with no feature terms at all never reached COMPLETE; they
	// fall back to priors.
	return out, nil
}

// statSortedByTid materializes STAT_c0 rows in (tid, kcid) order using the
// index (counts index page I/O, like a DB2 index-order scan).
func (m *Model) statSortedByTid(c0 taxonomy.NodeID) ([]relstore.Tuple, error) {
	ix := m.statIndexes[c0]
	st := m.StatTables[c0]
	var rows []relstore.Tuple
	err := ix.ScanRange(nil, nil, func(_ []byte, rid relstore.RID) (bool, error) {
		row, err := st.Get(rid)
		if err != nil {
			return true, err
		}
		rows = append(rows, row)
		return false, nil
	})
	return rows, err
}

// distinctCol extracts the distinct values of column c (rows must be sorted
// by that column) as single-column tuples.
func distinctCol(rows []relstore.Tuple, c int) []relstore.Tuple {
	var out []relstore.Tuple
	for _, r := range rows {
		if len(out) == 0 || out[len(out)-1][0].Int() != r[c].Int() {
			out = append(out, relstore.Tuple{r[c]})
		}
	}
	return out
}

// crossKidsIter emits, for each (did, len) input row, one
// (did, kcid, -len*logdenom) row per child, in kcid order.
type crossKidsIter struct {
	in       relstore.Iterator
	kids     []*taxonomy.Node
	logDenom map[taxonomy.NodeID]float64
	cur      relstore.Tuple
	ki       int
}

func (c *crossKidsIter) Next() (relstore.Tuple, bool, error) {
	for {
		if c.cur != nil && c.ki < len(c.kids) {
			k := c.kids[c.ki]
			c.ki++
			return relstore.Tuple{
				c.cur[0],
				relstore.I64(int64(k.ID)),
				relstore.F64(-c.cur[1].Float() * c.logDenom[k.ID]),
			}, true, nil
		}
		t, ok, err := c.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		c.cur = t
		c.ki = 0
	}
}
