package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"time"
)

// refNominal is how long refKernel takes on the nominal machine: the 2-core
// sizing box on a quiet stretch. It only sets the scale of the end-to-end
// timings; a comparison of two commits on one machine does not depend on it.
const refNominal = 160 * time.Millisecond

// refKernel is a fixed piece of work that calls nothing of the program
// under test but is made of what the program is made of: decoding 4 KiB
// pages of sorted byte-string keys into freshly allocated slices, binary
// searching them, filling a map, and sorting — allocation-heavy, so the
// garbage collector works beside it as it does beside a crawl. How long it
// takes says how fast the machine is right now.
//
// A run times it three times before its first unit and three times after
// each one, in the run's own process (whose heap stays small, whatever the
// program under test does), and scales its end-to-end timings by refNominal
// over the median of all of them. One sample is as noisy as the machine
// (7-17% from one to the next), hence the eighteen. README, Machine speed,
// has what this buys on the sizing box.
func refKernel() time.Duration {
	const pages, keysPerPage, lookups = 256, 128, 40000
	rng := rand.New(rand.NewSource(1))
	store := make([][]byte, pages)
	for p := range store {
		page := make([]byte, 0, 4096)
		for k := 0; k < keysPerPage; k++ {
			page = binary.BigEndian.AppendUint64(page, uint64(p*keysPerPage+k)*2654435761)
			page = binary.BigEndian.AppendUint64(page, rng.Uint64())
		}
		store[p] = page
	}
	t0 := time.Now()
	seen := make(map[uint64]int)
	var order []int
	for i := 0; i < lookups; i++ {
		page := store[rng.Intn(pages)]
		keys := make([][]byte, 0, keysPerPage)
		for off := 0; off < len(page); off += 16 {
			keys = append(keys, append([]byte(nil), page[off:off+16]...))
		}
		probe := keys[rng.Intn(len(keys))]
		j := sort.Search(len(keys), func(j int) bool { return bytes.Compare(keys[j][:8], probe[:8]) >= 0 })
		seen[binary.BigEndian.Uint64(keys[j][8:])%4096]++
		order = append(order, j)
		if len(order) == 2000 {
			sort.Ints(order)
			order = order[:0]
		}
	}
	return time.Since(t0)
}

// refSamples times the kernel three times and appends the milliseconds.
func refSamples(refs []float64) []float64 {
	for i := 0; i < 3; i++ {
		refs = append(refs, ms(refKernel()))
	}
	return refs
}
