package main

import "time"

// The sandbox this benchmark runs in shares its cores: the same fixed
// kernel takes anything from 27 to 77 ms there, drifting by ±20 % over
// minutes, which is more than every regression bound. So every run also
// measures how fast the machine is while it runs: a fixed kernel of the
// benchmark's own (no allocation, no library code) is timed in short slices
// threaded through the whole run, and every reported time is scaled to what
// it would have been at the reference speed (calRefNs per slice). Every
// phase of a run is spread over the whole of it, so one factor fits them
// all. Parent and change are measured with the same benchmark code, so the
// yardstick is the same on both sides; the report file keeps the factor and
// the unscaled values.
//
// The kernel is half lookups in an open-addressed hash table of its own
// and half dense float64 product, in slices of well under a millisecond.
// Candidates were timed beside the library (New, 4-event ApplyEvents,
// Recommend) twice: for ten minutes in one process while the box drifted
// by a factor of 1.25, and in forty short processes while it did not.
// Scaled by this mix, 30 s windows of the first agreed to 2 % (unscaled:
// 6 %) and the processes of the second to 3.9 % (unscaled: 5.2 %, two
// library operations against each other: 3.6 %). A dense product alone
// gave 3 % and 6.2 %: it slows down more than those operations do when the
// sibling hyperthread is busy, though no more than ingest-churn's dense
// merges, which lookups alone (2.5 % and 4 %) under-correct by a third.
// Lookups in a Go map gave 2.5 % and 5.5 %: its hash seed and so its memory
// accesses differ from process to process.
const (
	calN       = 128     // the dense product is calN×calN,
	calRows    = 32      // of which one slice computes this many rows
	calSlots   = 1 << 15 // slots in the hash table,
	calKeys    = 20000   // of which this many are taken
	calLookups = 40000   // lookups per slice
	calRefNs   = 7e5     // one slice on the reference box
	// calEvery is the cadence of slices inside loops: about 3 % of the time.
	calEvery = 25 * time.Millisecond
	// calBurst is how many slices precede each one-shot operation (a set-up,
	// a recovery).
	calBurst = 8
)

type calibrator struct {
	a, b, c []float64
	row     int // the next row of the product
	keys    []int32
	vals    []float64
	sink    float64
	slices  samples
	last    time.Time
}

func newCalibrator() *calibrator {
	c := &calibrator{a: make([]float64, calN*calN), b: make([]float64, calN*calN), c: make([]float64, calN*calN),
		keys: make([]int32, calSlots), vals: make([]float64, calSlots)}
	for i := range c.a {
		c.a[i], c.b[i] = float64(i%7)+0.5, float64(i%5)+0.25
	}
	for i := range c.keys {
		c.keys[i] = -1
	}
	for i := 0; i < calKeys; i++ {
		k := int32(i * 7919 % 100003)
		c.vals[c.slot(k)] = float64(i)
		c.keys[c.slot(k)] = k
	}
	return c
}

// slot finds key k's slot in the table, or the empty one where it would go.
func (c *calibrator) slot(k int32) uint32 {
	h := uint32(k) * 2654435761 >> 17
	for c.keys[h] != -1 && c.keys[h] != k {
		h = (h + 1) % calSlots
	}
	return h
}

// slice times the kernel once.
func (c *calibrator) slice() {
	start := time.Now()
	for n := 0; n < calRows; n++ {
		i := c.row
		c.row = (c.row + 1) % calN
		ci := c.c[i*calN : (i+1)*calN]
		for k := 0; k < calN; k++ {
			aik := c.a[i*calN+k]
			for j, bkj := range c.b[k*calN : (k+1)*calN] {
				ci[j] += aik * bkj
			}
		}
	}
	for i := 0; i < calLookups; i++ {
		c.sink += c.vals[c.slot(int32(i*31%100003))] // a fifth of the keys are present
	}
	c.last = time.Now()
	c.slices.add(c.last.Sub(start))
}

// burst runs calBurst slices back to back, before a one-shot operation.
func (c *calibrator) burst() {
	for i := 0; i < calBurst; i++ {
		c.slice()
	}
}

// tick runs one slice if calEvery has passed since the last, and returns
// the time it took, for the caller to leave out of its own clock.
func (c *calibrator) tick() time.Duration {
	start := time.Now()
	if start.Sub(c.last) < calEvery {
		return 0
	}
	c.slice()
	return c.last.Sub(start)
}

// speed is how fast the machine ran relative to the reference: above 1 is
// faster. It scales totals, rates and tails, by the mean slice: slow
// slices add up the way slow operations do.
func (c *calibrator) speed() float64 { return ratio(calRefNs, c.slices.mean()) }

// medianSpeed scales a median of operations that took about ns nanoseconds
// each: by the median of stretches of consecutive slices about as long.
// When the machine loses the CPU for milliseconds at a time, that hits few
// of many short operations and their median does not move, while every long
// operation takes its share; the yardstick must be as long as what it
// measures to behave the same way.
func (c *calibrator) medianSpeed(ns float64) float64 {
	k := min(max(1, int(ns/c.slices.q(0.5))), max(1, len(c.slices)/8))
	var stretches samples
	for i := 0; i+k <= len(c.slices); i += k {
		stretches = append(stretches, c.slices[i:i+k].mean())
	}
	return ratio(calRefNs, stretches.q(0.5))
}

// scaled converts a measured value to reference-speed terms by its unit:
// times shrink on a slow machine, rates grow, everything else is as
// measured.
func scaled(v float64, unit string, speed float64) float64 {
	switch unit {
	case "s", "ms", "us":
		return v * speed
	case "1/s":
		return v / speed
	}
	return v
}
