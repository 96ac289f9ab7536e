package linkgraph

import (
	"fmt"

	"focus/internal/relstore"
)

// Attach reopens the striped LINK store persisted in a durable db. The
// LINK#0 … LINK#n-1 tables recovered from the manifest get their bysrc key
// function re-bound (manifests persist index structure, not code — see
// relstore.BindIndexKey). The in-edge directories and the dst →
// stripe-presence registry are pure in-memory state, rebuilt in one pass
// over each stripe's oid_dst column. The store never moves or deletes an
// edge and registry masks only ever gain bits, so both come back exactly as
// the original store held them at its last checkpoint, each directory chain
// in the order ingest built it. n must equal the stripe count the store was
// created with (the crawler persists it in its checkpoint state): a LINK#n
// table means it does not, and is an error rather than edges left unread.
//
// A file written before the in-edge directory also carries a bydst
// (oid_dst, oid_src) B+tree on every stripe. Nothing reads it and ingest no
// longer keys it, so it is dropped, its pages going to the free list.
func Attach(db *relstore.DB, n int) (*Store, error) {
	if n <= 0 {
		n = 1
	}
	if db.Table(fmt.Sprintf("LINK#%d", n)) != nil {
		return nil, fmt.Errorf("linkgraph: attach: LINK#%d exists beyond the %d stripes asked for", n, n)
	}
	s := &Store{db: db, reg: newDstRegistry(n)}
	for i := 0; i < n; i++ {
		tab := db.Table(fmt.Sprintf("LINK#%d", i))
		if tab == nil {
			return nil, fmt.Errorf("linkgraph: attach: missing table LINK#%d", i)
		}
		if err := tab.DropIndex("bydst"); err != nil {
			return nil, err
		}
		if err := tab.BindIndexKey("bysrc", srcKey); err != nil {
			return nil, err
		}
		st := newStripe(i, tab)
		st.bysrc = tab.Index("bysrc")
		err := tab.ScanCols([]int{ColDst}, func(rid relstore.RID, v []relstore.Value) (bool, error) {
			s.reg.add(v[0].Int(), i)
			st.in.add(v[0].Int(), rid)
			return false, nil
		})
		if err != nil {
			return nil, err
		}
		s.stripes = append(s.stripes, st)
	}
	return s, nil
}
