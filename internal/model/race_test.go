//go:build race

package model

// raceEnabled reports whether the race detector is compiled in (under -race
// sync.Pool drops items at random, so allocation counts mean nothing).
const raceEnabled = true
