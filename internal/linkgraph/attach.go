package linkgraph

import (
	"fmt"

	"focus/internal/relstore"
)

// Attach reopens the striped LINK store persisted in a durable db: the
// LINK#0 … LINK#n-1 tables recovered from the manifest get their bysrc and
// bydst key functions re-bound (manifests persist index structure, not
// code — see relstore.BindIndexKey), and the dst → stripe-presence registry
// — pure in-memory routing state — is rebuilt by scanning each stripe and
// registering every stored destination. Registry masks only ever gain bits
// and the store never deletes edges, so the rebuilt masks are exactly the
// masks the original store held at its last checkpoint. n must equal the
// stripe count the store was created with (the crawler persists it in its
// checkpoint state).
func Attach(db *relstore.DB, n int) (*Store, error) {
	if n <= 0 {
		n = 1
	}
	s := &Store{db: db, reg: newDstRegistry(n)}
	for i := 0; i < n; i++ {
		tab := db.Table(fmt.Sprintf("LINK#%d", i))
		if tab == nil {
			return nil, fmt.Errorf("linkgraph: attach: missing table LINK#%d", i)
		}
		if err := tab.BindIndexKey("bysrc", func(t relstore.Tuple) []byte {
			return relstore.EncodeKey(t[ColSrc], t[ColDst])
		}); err != nil {
			return nil, err
		}
		if err := tab.BindIndexKey("bydst", func(t relstore.Tuple) []byte {
			return relstore.EncodeKey(t[ColDst], t[ColSrc])
		}); err != nil {
			return nil, err
		}
		st := &stripe{id: i, tab: tab, bysrc: tab.Index("bysrc"), bydst: tab.Index("bydst")}
		s.stripes = append(s.stripes, st)
	}
	for _, st := range s.stripes {
		err := st.tab.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
			s.reg.add(t[ColDst].Int(), st.id)
			return false, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}
