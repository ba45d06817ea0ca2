package rsvd

import "github.com/tree-svd/treesvd/internal/obs"

// sparseCalls counts completed Sparse and SparseFrom factorizations
// (FRPCA's included, through the Sparse call it makes). The rsvd entry
// points are free functions, so the counter is process-global too.
var sparseCalls obs.Counter

// SparseCalls returns the number of completed Sparse and SparseFrom
// factorizations since the process started.
func SparseCalls() uint64 { return sparseCalls.Load() }
