//go:build !race

package model

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
