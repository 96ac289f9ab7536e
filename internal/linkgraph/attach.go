package linkgraph

import (
	"fmt"

	"focus/internal/relstore"
)

// Attach reopens the striped LINK store persisted in a durable db. The
// in-edge and out-edge directories and the dst → stripe-presence registry are
// pure in-memory state, rebuilt in one pass over each stripe's oid_dst and
// oid_src columns. The store never moves or deletes an edge and registry
// masks only ever gain bits, so all three come back exactly as the original
// store held them at its last checkpoint, each directory chain in the order
// ingest built it. n must equal the stripe count the store was created with
// (the crawler persists it in its checkpoint state): a LINK#n table means it
// does not, and is an error rather than edges left unread.
//
// A file written before the directories carries a bysrc (oid_src, oid_dst)
// B+tree on every stripe, and an older one a bydst (oid_dst, oid_src) B+tree
// too. Nothing reads them and ingest no longer keys them, so they are dropped,
// their pages going to the free list.
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
		for _, name := range []string{"bydst", "bysrc"} {
			if err := tab.DropIndex(name); err != nil {
				return nil, err
			}
		}
		st := newStripe(i, tab)
		err := tab.ScanCols([]int{ColDst, ColSrc}, func(rid relstore.RID, v []relstore.Value) (bool, error) {
			s.reg.add(v[0].Int(), i)
			st.dir.add(v[1].Int(), v[0].Int(), rid)
			return false, nil
		})
		if err != nil {
			return nil, err
		}
		s.stripes = append(s.stripes, st)
	}
	return s, nil
}
