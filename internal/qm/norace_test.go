//go:build !race

package qm

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
