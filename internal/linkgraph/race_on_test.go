//go:build race

package linkgraph

// raceEnabled reports whether the race detector is compiled in; it adds
// allocations of its own, so allocation gates do not hold under it.
const raceEnabled = true
