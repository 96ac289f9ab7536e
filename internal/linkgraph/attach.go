package linkgraph

import (
	"fmt"

	"focus/internal/relstore"
)

// Attach reopens the striped LINK store persisted in a durable db. The
// out-edge directory is pure in-memory state, rebuilt in one pass over each
// stripe's oid_src column. The store never moves or deletes an edge, so it
// comes back exactly as the original store held it at its last checkpoint,
// each chain in the order ingest built it. The forward-weight log starts
// empty: the caller re-logs the visits its own relations record (the
// crawler's Resume does, from its harvest log). n must equal the stripe count the store was created with
// (the crawler persists it in its checkpoint state): a LINK#n table means it
// does not, and is an error rather than edges left unread.
func Attach(db *relstore.DB, n int) (*Store, error) {
	if n <= 0 {
		n = 1
	}
	if db.Table(fmt.Sprintf("LINK#%d", n)) != nil {
		return nil, fmt.Errorf("linkgraph: attach: LINK#%d exists beyond the %d stripes asked for", n, n)
	}
	s := &Store{db: db}
	for i := 0; i < n; i++ {
		tab := db.Table(fmt.Sprintf("LINK#%d", i))
		if tab == nil {
			return nil, fmt.Errorf("linkgraph: attach: missing table LINK#%d", i)
		}
		st := newStripe(i, tab)
		err := tab.ScanCols([]int{ColSrc}, func(rid relstore.RID, v []relstore.Value) (bool, error) {
			st.dir.add(v[0].Int(), rid)
			return false, nil
		})
		if err != nil {
			return nil, err
		}
		s.stripes = append(s.stripes, st)
	}
	return s, nil
}
