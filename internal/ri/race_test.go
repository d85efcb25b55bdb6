//go:build race

package ri

// raceEnabled reports whether the race detector is compiled in (under -race
// sync.Pool drops items at random, so allocation counts mean nothing).
const raceEnabled = true
