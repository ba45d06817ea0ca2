package check

import "github.com/tree-svd/treesvd/internal/core"

// Tree audits a Tree-SVD's cached nodes against the matrix it wraps and
// its configured geometry: every level sized by levelCounts, each node an
// |S|-row basis with one column per singular value, at most d of them,
// over a descending non-negative spectrum and a finite tail. Cheap (no
// factorizations) — suitable for per-update self-checks.
func Tree(t *core.Tree) error {
	return t.AuditShapes()
}

// TreeDeep is Tree plus the certificate (core.Tree.Certify): every node,
// at every level, against its input X — the block as its factor saw it,
// recovered from the DynRow delta bookkeeping, at level 1, the node's
// current children above it. With P = UᵀX it demands (UΣ)ᵀ(UΣ) = Σ²,
// P·Pᵀ = Σ², and an exact projection error ‖X‖² − ‖P‖² equal to the
// cached tail² at level 1 and within the upper-level gate's ((1+η)·t)²
// above it. It does not depend on how a node was produced, so it ties
// the caches, the baseline bookkeeping, the factorization routes and the
// gate together, and certifies a restored tree like a live one.
// O(nnz·d) plus a small Gram per node; harness use only.
func TreeDeep(t *core.Tree) error {
	return t.Certify()
}
