//go:build !race

package webgraph

const raceEnabled = false
