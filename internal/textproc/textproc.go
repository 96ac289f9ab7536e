// Package textproc provides the tokenization and term-hashing pipeline that
// feeds the classifier its term vectors. As in the paper (§2.1.3), terms are
// identified by 32-bit hash codes, so the classifier's statistics tables key
// on small fixed-width integers rather than strings.
package textproc

import (
	"slices"
	"strings"
	"sync"
	"unicode"
)

// stopwords is a small English stopword list; the generative model of the
// paper treats such terms as noise, and dropping them keeps the feature
// selector's job honest.
var stopwords = map[string]bool{
	"a": true, "about": true, "after": true, "all": true, "also": true,
	"an": true, "and": true, "any": true, "are": true, "as": true, "at": true,
	"be": true, "because": true, "been": true, "but": true, "by": true,
	"can": true, "come": true, "could": true, "day": true, "do": true,
	"even": true, "first": true, "for": true, "from": true, "get": true,
	"give": true, "go": true, "had": true, "has": true, "have": true,
	"he": true, "her": true, "him": true, "his": true, "how": true,
	"i": true, "if": true, "in": true, "into": true, "is": true, "it": true,
	"its": true, "just": true, "know": true, "like": true, "look": true,
	"make": true, "man": true, "many": true, "me": true, "more": true,
	"most": true, "my": true, "new": true, "no": true, "not": true,
	"now": true, "of": true, "on": true, "one": true, "only": true,
	"or": true, "other": true, "our": true, "out": true, "over": true,
	"people": true, "say": true, "see": true, "she": true, "so": true,
	"some": true, "take": true, "than": true, "that": true, "the": true,
	"their": true, "them": true, "then": true, "there": true, "these": true,
	"they": true, "think": true, "this": true, "time": true, "to": true,
	"two": true, "up": true, "us": true, "use": true, "very": true,
	"want": true, "was": true, "way": true, "we": true, "well": true,
	"were": true, "what": true, "when": true, "which": true, "who": true,
	"will": true, "with": true, "would": true, "year": true, "you": true,
	"your": true,
}

// IsStopword reports whether the (lowercase) token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// Tokenize splits text into lowercase alphanumeric tokens, dropping
// stopwords and single-character tokens.
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() >= 2 {
			tok := b.String()
			if !stopwords[tok] {
				out = append(out, tok)
			}
		}
		b.Reset()
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

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

// VectorOf tokenizes text and returns its term vector.
func VectorOf(text string) TermVector {
	return VectorOfTokens(Tokenize(text))
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
