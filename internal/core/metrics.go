package core

import "github.com/tree-svd/treesvd/internal/obs"

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
	// UpperMerges accumulates exact merge SVDs at levels ≥ 2 (affected
	// ancestors plus the root, per pass); UpperProjections the dirty upper
	// nodes the gate let publish a refined copy of their cached factor.
	UpperMerges, UpperProjections obs.Counter
	// BlockFactorNanos records one observation per level-1 block
	// factorization (the rsvd.SparseFrom call); PassNanos one per whole
	// Build/Update. The upper merge sweep is timed by the stage table's
	// tree.merge row (see Tree.Observe).
	BlockFactorNanos, PassNanos obs.Histogram
}

// observeCommit folds one committed pass's Stats into the cumulative
// counters.
func (m *Metrics) observeCommit(s Stats) {
	m.BlocksRebuilt.Add(uint64(s.Level1Rebuilt))
	m.BlocksSkipped.Add(uint64(s.Skipped))
	m.UpperMerges.Add(uint64(s.UpperRebuilt))
	m.UpperProjections.Add(uint64(s.UpperProjections))
}
