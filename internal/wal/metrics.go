package wal

import "github.com/tree-svd/treesvd/internal/obs"

// Metrics are the log writer's cumulative durability counters and
// latency spans. One instance is attached via Options.Met (allocated
// automatically when nil) and survives writer re-creation, so the counts
// span checkpoint/recovery cycles. Every Append fsyncs, so FsyncNanos is
// the WAL's dominant cost.
type Metrics struct {
	// Appends counts Append calls that wrote a record; AppendedBytes the
	// total record bytes (headers included) they wrote.
	Appends, AppendedBytes obs.Counter
	// Fsyncs counts File.Sync calls from every path (append, rotation,
	// segment creation, close).
	Fsyncs obs.Counter
	// Rotations counts segment rollovers.
	Rotations obs.Counter
	// AppendNanos spans whole Append calls (including any fsync);
	// FsyncNanos spans the File.Sync calls alone.
	AppendNanos, FsyncNanos obs.Histogram
}
