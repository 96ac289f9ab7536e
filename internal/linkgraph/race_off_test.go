//go:build !race

package linkgraph

const raceEnabled = false
