package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines and
// checks the total; run under -race this also proves data-race freedom.
func TestCounterConcurrent(t *testing.T) {
	const workers, per = 16, 10000
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(3)
				}
			}
		}()
	}
	wg.Wait()
	want := uint64(workers * (per/2 + 3*per/2))
	if got := c.Load(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	g.Add(-2)
	if got := g.Load(); got != 40 {
		t.Fatalf("gauge = %d, want 40", got)
	}
}

// TestHistogramConcurrent checks the lifetime aggregates under concurrent
// observation and that quantiles land inside the observed range.
func TestHistogramConcurrent(t *testing.T) {
	const workers, per = 8, 4000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				h.Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	wantSum := int64(workers) * int64(per) * int64(per+1) / 2
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Min != 1 || s.Max != int64(per) {
		t.Fatalf("min/max = %d/%d, want 1/%d", s.Min, s.Max, per)
	}
	for _, q := range []int64{s.P50, s.P90, s.P99} {
		if q < s.Min || q > s.Max {
			t.Fatalf("quantile %d outside [%d, %d]", q, s.Min, s.Max)
		}
	}
	if m := s.Mean(); m < s.Min || m > s.Max {
		t.Fatalf("mean %d outside [%d, %d]", m, s.Min, s.Max)
	}
}

// TestHistogramSnapshotDuringWrites takes snapshots while writers run:
// every snapshot must be internally sane (monotone count, quantiles
// within min..max) even though it is only approximately consistent.
func TestHistogramSnapshotDuringWrites(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := int64(1)
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(v%1000 + 1)
					v++
				}
			}
		}()
	}
	var last uint64
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		if s.Count < last {
			t.Fatalf("count went backwards: %d < %d", s.Count, last)
		}
		last = s.Count
		if s.Count > 0 {
			if s.Min < 0 || s.Max > 1001 {
				t.Fatalf("min/max out of range: %+v", s)
			}
			for _, q := range []int64{s.P50, s.P90, s.P99} {
				if q < s.Min || q > s.Max {
					t.Fatalf("quantile %d outside [%d, %d]", q, s.Min, s.Max)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	h.Observe(-5) // clamped
	if s := h.Snapshot(); s.Min != 0 || s.Max != 0 || s.Count != 1 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

func TestObserveSince(t *testing.T) {
	var h Histogram
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if s := h.Snapshot(); s.Min < int64(time.Millisecond)/2 {
		t.Fatalf("ObserveSince recorded %v", time.Duration(s.Min))
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.Counter("dup", "ops", "first", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "ops", "second", &c)
}

func TestTraceKindStrings(t *testing.T) {
	kinds := []TraceKind{TraceBatchStart, TraceBlockRecompute, TraceBatchEnd,
		TraceRebuild, TraceKind(99)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if !seen["unknown"] {
		t.Fatal("out-of-range kind should stringify as unknown")
	}
	if !strings.Contains(TraceBatchStart.String(), "batch") {
		t.Fatal("unexpected batch-start name")
	}
}
