package textproc

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTermIDDeterministicAndSpread(t *testing.T) {
	if TermID("cycling") != TermID("cycling") {
		t.Fatal("nondeterministic hash")
	}
	seen := map[uint32]string{}
	words := []string{"cycling", "bicycle", "bike", "gardening", "mutual", "funds", "hiv", "aids"}
	for _, w := range words {
		id := TermID(w)
		if prev, dup := seen[id]; dup {
			t.Fatalf("collision between %q and %q", prev, w)
		}
		seen[id] = w
	}
}

func TestTermIDMatchesFNV1a(t *testing.T) {
	// Known FNV-1a test vectors.
	if got := TermID(""); got != 2166136261 {
		t.Fatalf("fnv(\"\") = %d", got)
	}
	if got := TermID("a"); got != 0xe40c292c {
		t.Fatalf("fnv(a) = %#x", got)
	}
}

// freqOf looks tid up in v by binary search; 0 when absent.
func freqOf(v TermVector, tid uint32) int32 {
	if i, ok := slices.BinarySearchFunc(v, tid, func(t Term, tid uint32) int {
		return cmp.Compare(t.TID, tid)
	}); ok {
		return v[i].Freq
	}
	return 0
}

func TestVectorOf(t *testing.T) {
	v := VectorOfTokens([]string{"bike", "bike", "ride"})
	if freqOf(v, TermID("bike")) != 2 || freqOf(v, TermID("ride")) != 1 || freqOf(v, TermID("walk")) != 0 {
		t.Fatalf("v = %v", v)
	}
	if v.Length() != 3 {
		t.Fatalf("length = %d", v.Length())
	}
}

// TestVectorOfTokensQuick: the vector is the documents's distinct tids in
// strictly ascending order with their counts — equal to a map-count
// reference — its mass is the token count, and it is allocated at exactly
// its distinct count. Beyond quick's random (mostly distinct, mostly short)
// lists, it covers empty input, and all-duplicate and small-vocabulary
// input from one token to far more than a doc-heavy page.
func TestVectorOfTokensQuick(t *testing.T) {
	check := func(tokens []string) error {
		v := VectorOfTokens(tokens)
		ref := map[uint32]int32{}
		for _, tok := range tokens {
			ref[TermID(tok)]++
		}
		switch {
		case len(v) != len(ref):
			return fmt.Errorf("%d terms, reference %d", len(v), len(ref))
		case cap(v) != len(v):
			return fmt.Errorf("cap %d, len %d", cap(v), len(v))
		case v.Length() != int64(len(tokens)):
			return fmt.Errorf("length %d, %d tokens", v.Length(), len(tokens))
		}
		for i, e := range v {
			if i > 0 && e.TID <= v[i-1].TID {
				return fmt.Errorf("tid %d at %d after %d", e.TID, i, v[i-1].TID)
			}
			if e.Freq < 1 || e.Freq != ref[e.TID] {
				return fmt.Errorf("tid %d: freq %d, reference %d", e.TID, e.Freq, ref[e.TID])
			}
		}
		return nil
	}
	f := func(tokens []string) bool {
		clean := make([]string, 0, len(tokens))
		for _, tok := range tokens {
			if tok != "" {
				clean = append(clean, tok)
			}
		}
		return check(clean) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	words := func(n, vocab int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("w%d", rng.Intn(vocab))
		}
		return out
	}
	cases := map[string][]string{
		"empty": nil,
		"one":   {"bike"},
	}
	for _, n := range []int{1, 2, 3, 255, 256, 257, 5000} {
		cases[fmt.Sprintf("dup%d", n)] = words(n, 1)
		cases[fmt.Sprintf("vocab8x%d", n)] = words(n, 8)
		cases[fmt.Sprintf("vocab20kx%d", n)] = words(n, 20000)
	}
	for name, toks := range cases {
		if err := check(toks); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
