package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// ringSize is the number of most-recent observations a Histogram retains
// for quantile estimation. A power of two so the index wrap is a mask.
const ringSize = 512

// Histogram records int64 observations (by convention nanoseconds)
// without locks or allocation: cumulative count/sum/min/max are atomics,
// and the last ringSize observations live in a fixed ring buffer from
// which Snapshot estimates quantiles. Quantiles therefore describe the
// recent window, while Count/Sum/Min/Max cover the histogram's whole
// lifetime. The zero value is ready to use; all methods are safe for
// concurrent use.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Int64
	// minP1 holds min+1 so the zero value means "no observation yet"
	// (observations are assumed non-negative, which holds for durations).
	minP1 atomic.Int64
	max   atomic.Int64
	pos   atomic.Uint64
	ring  [ringSize]atomic.Int64
}

// Observe records one value. Values are assumed non-negative; negative
// values are clamped to 0 so the min/max sentinels stay sound.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	for {
		old := h.minP1.Load()
		if old != 0 && v+1 >= old {
			break
		}
		if h.minP1.CompareAndSwap(old, v+1) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old {
			break
		}
		if h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.ring[(h.pos.Add(1)-1)%ringSize].Store(v)
	// Counted last: a Snapshot that sees Count > 0 then loads a Min, Max
	// and ring that hold at least one whole observation.
	h.count.Add(1)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// HistStats is a point-in-time view of a Histogram. Count, Sum, Min and
// Max are lifetime aggregates; the quantiles are estimated from the most
// recent ringSize observations.
type HistStats struct {
	Count               uint64
	Sum, Min, Max       int64
	P50, P90, P99, P999 int64
}

// Mean returns Sum/Count, or 0 when empty.
func (s HistStats) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / int64(s.Count)
}

// Snapshot returns the current statistics. Fields are read individually
// atomically; under concurrent writes the set is approximately — not
// transactionally — consistent (e.g. Sum may include an observation Count
// does not yet). This is the documented contract of the whole package.
func (h *Histogram) Snapshot() HistStats {
	s := HistStats{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if m := h.minP1.Load(); m != 0 {
		s.Min = m - 1
	}
	n := ringSize
	if s.Count < ringSize {
		n = int(s.Count)
	}
	if n == 0 {
		return s
	}
	window := make([]int64, n)
	for i := range window {
		window[i] = h.ring[i].Load()
	}
	sort.Slice(window, func(a, b int) bool { return window[a] < window[b] })
	// A concurrent Observe may have taken a ring slot it has not stored
	// yet, or stored a sample beyond the Min/Max loaded above: keep the
	// window's quantiles inside the lifetime bounds.
	q := func(p float64) int64 { return min(max(quantile(window, p), s.Min), s.Max) }
	s.P50 = q(0.50)
	s.P90 = q(0.90)
	s.P99 = q(0.99)
	// With a 512-slot window the p999 is effectively the window max; it
	// exists so latency SLOs (the serving layer's p999 target) read from
	// the same surface as the rest of the quantiles.
	s.P999 = q(0.999)
	return s
}

// quantile returns the q-th quantile of a sorted non-empty window using
// the nearest-rank method.
func quantile(sorted []int64, q float64) int64 {
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
