package relstore

// Iterator is a pull-based stream of tuples. Next returns ok=false when the
// stream is exhausted. Implementations are not safe for concurrent use.
type Iterator interface {
	Next() (t Tuple, ok bool, err error)
}

type sliceIter struct {
	rows []Tuple
	i    int
}

// NewSliceIter returns an iterator over an in-memory row slice.
func NewSliceIter(rows []Tuple) Iterator { return &sliceIter{rows: rows} }

func (s *sliceIter) Next() (Tuple, bool, error) {
	if s.i >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.i]
	s.i++
	return t, true, nil
}

// Collect drains an iterator into a slice.
func Collect(it Iterator) ([]Tuple, error) {
	var out []Tuple
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t)
	}
}

type mapIter struct {
	in Iterator
	fn func(Tuple) Tuple
}

// MapIter applies fn to every tuple (projection, derived columns).
func MapIter(in Iterator, fn func(Tuple) Tuple) Iterator {
	return &mapIter{in: in, fn: fn}
}

func (m *mapIter) Next() (Tuple, bool, error) {
	t, ok, err := m.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return m.fn(t), true, nil
}
