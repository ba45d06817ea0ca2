package wal

import "github.com/tree-svd/treesvd/internal/obs"

// Metrics are the log writer's cumulative durability counters and
// latency spans, passed to NewWriter. Every Append fsyncs, so FsyncNanos
// is the WAL's dominant cost.
type Metrics struct {
	// Appends counts Append calls that wrote a record; AppendedBytes the
	// total record bytes (headers included) they wrote.
	Appends, AppendedBytes obs.Counter
	// Fsyncs counts File.Sync calls from every path (append, segment
	// creation, NewWriter's fsync of the newest segment).
	Fsyncs obs.Counter
	// Rotations counts segments started at a checkpoint mark.
	Rotations obs.Counter
	// AppendNanos spans each record's write and fsync (and any
	// rotation) on Append's helper goroutine; FsyncNanos spans the
	// File.Sync calls alone.
	AppendNanos, FsyncNanos obs.Histogram
}
