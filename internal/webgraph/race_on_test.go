//go:build race

package webgraph

// raceEnabled reports whether the race detector is compiled in; under it
// sync.Pool drops a quarter of what it is given, so allocation gates on
// pooled values do not hold.
const raceEnabled = true
