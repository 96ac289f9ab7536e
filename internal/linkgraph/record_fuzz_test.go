package linkgraph

import (
	"bytes"
	"math"
	"testing"

	"focus/internal/relstore"
)

// FuzzLinkRecord hands the typed LINK decoder arbitrary byte strings. It
// must return an error for any string that is not exactly one record long
// and must never panic. It must read nothing past the record: it gets a
// slice whose capacity ends where the record does, and an edge it decodes
// must encode back, through the relation's own schema, to the same bytes.
func FuzzLinkRecord(f *testing.F) {
	for _, e := range []Edge{
		{},
		{Src: 1, SidSrc: 2, Dst: 3, SidDst: 4, WgtFwd: 0.5, WgtRev: 0.25},
		{Src: math.MinInt64, SidSrc: math.MaxInt32, Dst: -1, SidDst: math.MinInt32, WgtFwd: math.Inf(-1), WgtRev: math.NaN()},
	} {
		rec, err := relstore.EncodeTuple(nil, Schema(), e.tuple(make(relstore.Tuple, 6)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add(rec[:recordLen-1])
		f.Add(append(rec, 0))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		e, err := decodeRecord(rec[:len(rec):len(rec)])
		if len(rec) != recordLen {
			if err == nil {
				t.Fatalf("a %d-byte string decoded as a record: %+v", len(rec), e)
			}
			return
		}
		if err != nil {
			t.Fatalf("a %d-byte record: %v", len(rec), err)
		}
		back, err := relstore.EncodeTuple(nil, Schema(), e.tuple(make(relstore.Tuple, 6)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, rec) {
			t.Fatalf("record %x decodes to %+v, which encodes to %x", rec, e, back)
		}
	})
}
