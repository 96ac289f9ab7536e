package webgraph

import (
	"math/rand"
	"reflect"
)

// pageSource is math/rand's source (Mitchell and Reeds' additive lagged
// Fibonacci generator, 607 words, tap 273) with a Seed that computes
// rand.NewSource(seed)'s state in place of stepping to it (DESIGN.md "Page streams").
type pageSource struct {
	tap, feed int
	vec       [pageSourceLen]int64
}

const (
	pageSourceLen = 607
	int32max      = 1<<31 - 1
	lehmerA       = 48271 // math/rand seeds by x → 48271·x mod int32max
	lehmerA3      = lehmerA * lehmerA * lehmerA % int32max
	lehmerA21     = lehmerA3 * lehmerA3 * lehmerA3 * lehmerA3 * lehmerA3 * lehmerA3 * lehmerA3 % int32max
)

// pageCooked is math/rand's rngCooked: rand.NewSource(1)'s state XOR the one
// pageSource.Seed(1) sets while pageCooked is zero. Unlike a copy of the 607
// constants (with Go's BSD notice), it cannot drift from the linked math/rand.
var pageCooked [pageSourceLen]int64

func init() {
	var s pageSource
	s.Seed(1)
	vec := reflect.ValueOf(rand.NewSource(1)).Elem().FieldByName("vec")
	if !vec.IsValid() || vec.Len() != pageSourceLen {
		panic("webgraph: math/rand's source no longer holds a 607-word vec")
	}
	for i := range pageCooked {
		pageCooked[i] = vec.Index(i).Int() ^ s.vec[i]
	}
}

// Seed sets the state rand.NewSource(seed) starts from. math/rand steps its
// Lehmer x 20 times, then three times a word: word i XORs x₀·A^(21+3i) << 40,
// x₀·A^(22+3i) << 20 and x₀·A^(23+3i), three chains stepped by A³.
func (s *pageSource) Seed(seed int64) {
	s.tap, s.feed = 0, pageSourceLen-273
	if seed %= int32max; seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	a := uint64(seed) * lehmerA21 % int32max
	b := a * lehmerA % int32max
	c := b * lehmerA % int32max
	for i := range s.vec {
		s.vec[i] = int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ pageCooked[i]
		a, b, c = mulModA3(a), mulModA3(b), mulModA3(c)
	}
}

// mulModA3 is x·A³ mod int32max for x in [1, int32max) by two Mersenne folds
// (2³¹ ≡ 1): to [1, 2·int32max) less int32max, no product being a multiple
// of the prime, then to [1, int32max).
func mulModA3(x uint64) uint64 {
	p := x * lehmerA3
	p = p&int32max + p>>31
	return p&int32max + p>>31
}

// Uint64 is math/rand's step, one feedback add.
func (s *pageSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += pageSourceLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += pageSourceLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *pageSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
