package rsvd

import (
	"time"

	"github.com/tree-svd/treesvd/internal/obs"
)

// Process-global factorization counters and kernel-time span. The rsvd
// entry points are free functions, so the counters are too; they separate
// level-1 kernel time from the tree bookkeeping around it when read next
// to core.Metrics. One observation per completed factorization.
var (
	sparseCalls, frpcaCalls obs.Counter
	factorNanos             obs.Histogram
)

// CallStats is a point-in-time view of the package counters.
type CallStats struct {
	// Sparse / FRPCA count completed factorizations per entry point.
	Sparse, FRPCA uint64
	// FactorNanos summarizes wall time per factorization, all entry
	// points pooled.
	FactorNanos obs.HistStats
}

// Stats returns the cumulative factorization counts and timing.
func Stats() CallStats {
	return CallStats{
		Sparse:      sparseCalls.Load(),
		FRPCA:       frpcaCalls.Load(),
		FactorNanos: factorNanos.Snapshot(),
	}
}

// observeSparse records one completed Sparse factorization.
func observeSparse(start time.Time) {
	sparseCalls.Inc()
	factorNanos.ObserveSince(start)
}
