//go:build !race

package deadlock

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
