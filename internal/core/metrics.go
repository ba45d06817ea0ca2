package core

import (
	"context"

	"github.com/tree-svd/treesvd/internal/obs"
)

// Metrics are the tree layer's cumulative work counters and timing spans
// — the observable form of the Theorem 3.6/3.7 cost model, whose update
// cost is dominated by how many of the b = k^(q-1) level-1 blocks trip
// the Eqn. 2 trigger. Unlike Stats (the last pass only), these accumulate
// over the tree's lifetime. One instance per Tree, allocated by NewTree;
// all fields are updated with single atomic operations per block or pass.
type Metrics struct {
	// Builds counts full Build passes (initial build, Rebuild fallback);
	// Updates counts lazy Update passes (including ones that rebuilt
	// nothing).
	Builds, Updates obs.Counter
	// BlocksRebuilt and BlocksSkipped accumulate the per-pass |Z| and
	// cache-hit counts: their ratio is the lazy update's skip rate, the
	// quantity Fig. 13 sweeps δ against.
	BlocksRebuilt, BlocksSkipped obs.Counter
	// UpperMerges accumulates SVD merges at levels ≥ 2 (affected
	// ancestors plus the root, per pass).
	UpperMerges obs.Counter
	// BlockFactorNanos records one observation per level-1 block
	// factorization (the rsvd.Sparse call); MergeNanos one per upper
	// merge pass; PassNanos one per whole Build/Update.
	BlockFactorNanos, MergeNanos, PassNanos obs.Histogram
}

// observeCommit folds one committed pass's Stats into the cumulative
// counters.
func (m *Metrics) observeCommit(s Stats) {
	m.BlocksRebuilt.Add(uint64(s.Level1Rebuilt))
	m.BlocksSkipped.Add(uint64(s.Skipped))
	m.UpperMerges.Add(uint64(s.UpperRebuilt))
}

// stage runs f under an obs pprof stage label, returning its error.
func stage(ctx context.Context, name string, f func(context.Context) error) error {
	var err error
	obs.Stage(ctx, name, func(ctx context.Context) { err = f(ctx) })
	return err
}
