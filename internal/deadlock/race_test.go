//go:build race

package deadlock

// raceEnabled reports whether the race detector is compiled in (under -race
// sync.Pool drops items, so allocation counts mean nothing).
const raceEnabled = true
