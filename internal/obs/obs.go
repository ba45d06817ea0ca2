// Package obs is the zero-dependency observability layer of the Tree-SVD
// pipeline: lock-free counters, gauges and ring-buffer histograms that the
// hot paths update with single atomic operations, a Registry that exposes
// every registered metric in the Prometheus text format over HTTP, a
// pluggable TraceHook fired at the pipeline's structural events (batch
// start/end, block recompute, rebuild), and the stage table's clock
// (Stages), which times each stage of an update and labels its CPU
// profile samples.
//
// Design rules, enforced by the benchmarks in this package and the
// churnstress overhead experiment in EXPERIMENTS.md:
//
//   - Recording a metric never allocates and never takes a lock: counters
//     and gauges are one atomic RMW, a histogram observation is three
//     atomic RMWs plus one atomic store into a fixed ring.
//   - Reading (Histogram.Snapshot, ServeHTTP) may allocate freely — it is the cold
//     path — and sees each field atomically, though not the whole set as
//     of one instant (metrics keep moving while a read walks them).
//   - A nil TraceHook costs one predictable branch at each fire site.
//
// The metric structs of the instrumented packages (ppr.Metrics,
// core.Metrics, wal.Metrics) embed these primitives by value, so a single
// allocation covers a subsystem and the zero value of every primitive is
// ready to use.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use. All methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic int64 that can move in both directions (a level, a
// timestamp, a last-seen size). The zero value is ready to use. All
// methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
