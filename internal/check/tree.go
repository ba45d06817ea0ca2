package check

import "github.com/tree-svd/treesvd/internal/core"

// Tree audits a Tree-SVD's cached structures against the matrix it wraps
// and its configured geometry: level-1 caches present and correctly
// shaped, upper-level slices sized by levelCounts, root dimensions
// agreeing with a descending non-negative spectrum. Cheap (no
// factorizations) — suitable for per-update self-checks.
func Tree(t *core.Tree) error {
	return t.AuditShapes()
}

// TreeDeep is Tree plus the two audits that recompute: every upper node
// against its current children (core.Tree.AuditUpper: an orthonormal
// basis whose projection error is within the upper-level gate's
// (1+η)·t of its anchor tail), and seed-replay verification of every
// level-1 cache — each block's baseline (its contents at the cache's
// rebuild, recovered from the DynRow delta bookkeeping) is re-factored
// at the seed recorded in the cache and must reproduce the cached Ū and
// tail energy. This ties the layers together — caches, baseline
// bookkeeping, the deterministic randomized SVD and the gate — so
// corruption in any one of them surfaces. Costs a full re-factorization
// per block; harness use only.
func TreeDeep(t *core.Tree) error {
	if err := t.AuditUpper(); err != nil {
		return err
	}
	return t.AuditBlocks()
}
