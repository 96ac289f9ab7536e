// Package textproc turns a document's tokens into the term vector the
// classifier reads. As in the paper (§2.1.3), terms are identified by 32-bit
// hash codes, so the classifier's statistics tables key on small fixed-width
// integers rather than strings.
package textproc

import (
	"slices"
	"sync"
)

// TermID hashes a token to its 32-bit term ID (FNV-1a), as the paper's
// system does for its tid columns.
func TermID(tok string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(tok); i++ {
		h ^= uint32(tok[i])
		h *= prime32
	}
	return h
}

// Term is one entry of a term vector: a term ID and its occurrence count in
// the document (the paper's freq(d, t), one DOCUMENT row).
type Term struct {
	TID  uint32
	Freq int32
}

// TermVector is a sparse document representation: the document's distinct
// term IDs in strictly ascending order, each with its count. Ascending tid
// is the one order every classification path accumulates in and the order
// DOCUMENT rows are written in, so nothing downstream sorts again.
type TermVector []Term

// Length returns n(d), the total number of term occurrences.
func (v TermVector) Length() int64 {
	var n int64
	for _, t := range v {
		n += int64(t.Freq)
	}
	return n
}

// hashScratch is VectorOfTokens' reusable working memory: the token hashes
// and the radix sort's second buffer.
type hashScratch struct{ keys, tmp []uint32 }

var scratchPool = sync.Pool{New: func() any { return new(hashScratch) }}

// VectorOfTokens builds a term vector from pre-tokenized terms: hash every
// token, sort the hashes with a linear-time LSD radix sort, and run-length
// them into a vector whose length and capacity are its distinct term count.
func VectorOfTokens(tokens []string) TermVector {
	if len(tokens) == 0 {
		return nil
	}
	s := scratchPool.Get().(*hashScratch)
	keys := slices.Grow(s.keys[:0], len(tokens))
	for _, tok := range tokens {
		keys = append(keys, TermID(tok))
	}
	s.tmp = slices.Grow(s.tmp[:0], len(keys))[:len(keys)]
	keys, s.tmp = radixSort(keys, s.tmp)
	distinct := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			distinct++
		}
	}
	v := make(TermVector, 0, distinct)
	for _, k := range keys {
		if n := len(v); n > 0 && v[n-1].TID == k {
			v[n-1].Freq++
		} else {
			v = append(v, Term{TID: k, Freq: 1})
		}
	}
	s.keys = keys
	scratchPool.Put(s)
	return v
}

// radixSort sorts a by bytes, least significant first, scattering between a
// and buf (len(buf) == len(a)). A byte every key shares is skipped, so a
// one-token or all-duplicate input moves nothing. It returns the sorted
// slice and the other buffer.
func radixSort(a, buf []uint32) (sorted, spare []uint32) {
	var count [4][256]int32
	for _, k := range a {
		count[0][uint8(k)]++
		count[1][uint8(k>>8)]++
		count[2][uint8(k>>16)]++
		count[3][uint8(k>>24)]++
	}
	for pass := range count {
		c := &count[pass]
		shift := 8 * pass
		if int(c[uint8(a[0]>>shift)]) == len(a) {
			continue
		}
		var sum int32
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, k := range a {
			d := uint8(k >> shift)
			buf[c[d]] = k
			c[d]++
		}
		a, buf = buf, a
	}
	return a, buf
}
