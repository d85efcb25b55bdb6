//go:build !race

package ri

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
