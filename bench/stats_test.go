package main

import (
	"testing"
	"time"
)

func TestQuantileNs(t *testing.T) {
	ten := func() []int64 { return []int64{90, 10, 50, 30, 70, 20, 100, 40, 80, 60} }
	cases := []struct {
		name    string
		samples []int64
		q       float64
		want    int64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []int64{7}, 0.99, 7},
		{"median of ten is the 5th", ten(), 0.50, 50},
		{"p90 of ten is the 9th", ten(), 0.90, 90},
		{"p99 of ten is the largest", ten(), 0.99, 100},
		{"p0 clamps to the smallest", ten(), 0, 10},
		{"p100 is the largest", ten(), 1, 100},
		{"median of three", []int64{3, 1, 2}, 0.5, 2},
		{"p99 of 200 is the 198th", seq(200), 0.99, 198},
	}
	for _, c := range cases {
		if got := quantileNs(c.samples, c.q); got != c.want {
			t.Errorf("%s: quantileNs(q=%v) = %d, want %d", c.name, c.q, got, c.want)
		}
	}
}

// seq returns n..1, so the k-th smallest value is k.
func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(n - i)
	}
	return s
}

func TestMedian(t *testing.T) {
	cases := []struct {
		vals []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{9, 1, 5}, 5},
		{[]float64{8, 2, 4, 6}, 5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.vals...)
		if got := median(c.vals); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.vals, got, c.want)
		}
		for i := range in {
			if in[i] != c.vals[i] {
				t.Errorf("median reordered its input: %v -> %v", in, c.vals)
				break
			}
		}
	}
}

func TestMedianRate(t *testing.T) {
	// Five half-second windows; the stalled window (10) and the burst (400)
	// do not move the median, which is 100 commits / 0.5 s.
	got := medianRate([]uint32{100, 10, 110, 400, 90}, 500*time.Millisecond)
	if got != 200 {
		t.Errorf("medianRate = %v, want 200", got)
	}
	if got := medianRate(nil, time.Second); got != 0 {
		t.Errorf("medianRate(nil) = %v, want 0", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio(6,3) = %v", got)
	}
	if got := ratio(6, 0); got != 0 {
		t.Errorf("ratio(6,0) = %v, want 0", got)
	}
}
