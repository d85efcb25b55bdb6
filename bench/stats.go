package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantileNs returns the exact q-quantile of samples by the nearest-rank
// rule: the smallest sample with at least a fraction q of the samples at or
// below it. It sorts samples in place and returns 0 for an empty slice.
func quantileNs(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median returns the middle value of vals (the mean of the two middle values
// for an even count) without reordering the caller's slice; 0 when empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// medianRate turns per-window event counts into events per second and
// returns the median window: one slow window (a noisy neighbour, a GC cycle)
// does not move it the way it moves a mean.
func medianRate(counts []uint32, window time.Duration) float64 {
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / window.Seconds()
	}
	return median(rates)
}

// ms renders nanoseconds as milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSnapshot returns a snapshot holding only the process-wide counters:
// CPU time from getrusage, allocation and GC totals from the runtime.
func procSnapshot() snapshot {
	var s snapshot
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s[cUserUs] = float64(ru.Utime.Sec)*1e6 + float64(ru.Utime.Usec)
	s[cSysUs] = float64(ru.Stime.Sec)*1e6 + float64(ru.Stime.Usec)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s[cMallocs], s[cAllocBytes] = float64(m.Mallocs), float64(m.TotalAlloc)
	s[cGCCycles], s[cGCPauseNs] = float64(m.NumGC), float64(m.PauseTotalNs)
	return s
}
