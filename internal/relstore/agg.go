package relstore

import "bytes"

// sumState is one sum column's running total over a group. The sum is
// accumulated in float64 and comes out in the kind of the group's first
// non-null value; a group of nulls sums to Null.
type sumState struct {
	sum     float64
	isFloat bool
	started bool
}

func (a *sumState) add(v Value) {
	if v.IsNull() {
		return
	}
	if !a.started {
		a.started = true
		a.isFloat = v.Kind == KFloat64
	}
	a.sum += v.Float()
}

func (a *sumState) result() Value {
	switch {
	case !a.started:
		return Null()
	case a.isFloat:
		return F64(a.sum)
	}
	return I64(int64(a.sum))
}

type groupByIter struct {
	in       Iterator
	keyFn    func(Tuple) []byte
	keyCols  []int
	sumCols  []int
	pend     Tuple
	pendKey  []byte
	pendOK   bool
	primed   bool
	finished bool
}

// GroupBy sums an input stream that is already sorted by the grouping key.
// Output rows are the key columns followed by the sum of each of sumCols
// over the group.
func GroupBy(in Iterator, keyFn func(Tuple) []byte, keyCols, sumCols []int) Iterator {
	return &groupByIter{in: in, keyFn: keyFn, keyCols: keyCols, sumCols: sumCols}
}

func (g *groupByIter) Next() (Tuple, bool, error) {
	if g.finished {
		return nil, false, nil
	}
	if !g.primed {
		g.primed = true
		t, ok, err := g.in.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			g.finished = true
			return nil, false, nil
		}
		g.pend, g.pendKey, g.pendOK = t, g.keyFn(t), true
	}
	if !g.pendOK {
		g.finished = true
		return nil, false, nil
	}
	states := make([]sumState, len(g.sumCols))
	first := g.pend
	key := g.pendKey
	for g.pendOK && bytes.Equal(g.pendKey, key) {
		for i, c := range g.sumCols {
			states[i].add(g.pend[c])
		}
		t, ok, err := g.in.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			g.pendOK = false
			break
		}
		g.pend, g.pendKey = t, g.keyFn(t)
	}
	out := make(Tuple, 0, len(g.keyCols)+len(states))
	for _, c := range g.keyCols {
		out = append(out, first[c])
	}
	for i := range states {
		out = append(out, states[i].result())
	}
	return out, true, nil
}
