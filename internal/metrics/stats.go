package metrics

import (
	"fmt"
	"math"
)

// Welford is a numerically stable streaming mean/variance accumulator.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one sample.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the sample variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample (0 with no samples).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest sample (0 with no samples).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// Histogram is a log₂-bucketed histogram over non-negative values, sized for
// microsecond latencies up to ~73 hours. Quantiles are approximate within a
// factor of the bucket width (≤2×).
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     float64
}

func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	b := int(math.Log2(v)) + 1
	if b > 63 {
		b = 63
	}
	return b
}

// Add records one non-negative sample.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Merge folds another histogram's samples into this one (bucket-wise sum;
// quantiles of the merge are exact at the shared bucket resolution).
func (h *Histogram) Merge(o Histogram) {
	for b, n := range o.buckets {
		h.buckets[b] += n
	}
	h.count += o.count
	h.sum += o.sum
}

// Sub returns the histogram of samples recorded since prev, where prev is an
// earlier snapshot of the same monotonically growing histogram (bucket-wise
// subtraction, clamped at zero so a mismatched pair degrades to nonsense
// counts rather than uint64 wraparound). This is how the scenario harness
// turns cumulative run histograms into per-phase latency distributions.
func (h Histogram) Sub(prev Histogram) Histogram {
	var out Histogram
	for b := range h.buckets {
		if h.buckets[b] > prev.buckets[b] {
			out.buckets[b] = h.buckets[b] - prev.buckets[b]
		}
	}
	if h.count > prev.count {
		out.count = h.count - prev.count
	}
	if h.sum > prev.sum {
		out.sum = h.sum - prev.sum
	}
	return out
}

// Mean returns the exact sample mean.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an approximate q-quantile (q in [0,1]) using the
// geometric midpoint of the containing bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for b, n := range h.buckets {
		cum += n
		if cum > target {
			if b == 0 {
				return 0.5
			}
			lo := math.Exp2(float64(b - 1))
			hi := math.Exp2(float64(b))
			return math.Sqrt(lo * hi)
		}
	}
	return h.sum / float64(h.count)
}

// Series is a labelled sequence of (x, y) points — one figure line.
type Series struct {
	Label  string
	Points []Point
}

// Point is one measurement in a Series.
type Point struct {
	X float64
	Y float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Table is a simple column-aligned text table (the bench harness prints the
// paper's "rows" with it).
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		out := ""
		for i, c := range cells {
			if i >= len(widths) {
				break
			}
			out += fmt.Sprintf("%-*s", widths[i]+2, c)
		}
		return out
	}
	s := line(t.Header) + "\n"
	for _, r := range t.Rows {
		s += line(r) + "\n"
	}
	return s
}

// F formats a float64 compactly for table cells.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
