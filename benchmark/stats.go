package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between order statistics, the definition numpy and
// statistics.quantiles(method="inclusive") use. No samples give 0, the
// value a layer reports when the workload never drove it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// eligible reports whether n samples support the q-quantile (q ≥ 0.5): a
// percentile needs at least ten samples beyond it, so p50 needs 20, p99
// 1 000 and p999 10 000.
func eligible(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// samples collects one timing distribution in nanoseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)) }

// sorted returns an ascending copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// q returns the q-quantile in nanoseconds.
func (s samples) q(q float64) float64 { return quantile(s.sorted(), q) }

// sum returns the total in nanoseconds.
func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// mean returns the average in nanoseconds, 0 for no samples.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never drove).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
