//go:build race

package wal

// raceEnabled reports whether the race detector is compiled in (its
// instrumentation allocates, so allocation counts mean nothing under it).
const raceEnabled = true
