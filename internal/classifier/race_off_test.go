//go:build !race

package classifier

const raceEnabled = false
