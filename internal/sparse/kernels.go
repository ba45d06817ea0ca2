package sparse

import (
	"fmt"
	"slices"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/par"
)

// Sparse×dense product kernels, one entry point per product (MulDenseW,
// TMulDenseW), each taking a worker budget like the dense kernels in
// internal/linalg. Every product ends in linalg.Axpy, the module's one
// axpy loop, so the sparse products round each product before its add
// exactly as the dense kernels do, on every GOARCH.
//
// Both products partition their *output* rows over par.ForChunks, so
// each element is produced by exactly one panel with a fixed reduction
// order: bit-identical for every worker count, like the dense kernels.

// spMinFlops gates goroutine dispatch, like linalg's parMinFlops. It is a
// variable only so tests can lower it to drive the parallel paths on
// small matrices; production code treats it as const.
var spMinFlops = 1 << 18

// MulDenseW returns m·b for a dense b (Cols×k), with a worker budget over
// output-row panels. Cost O(nnz·k). The result is identical for every
// worker count.
func (m *CSR) MulDenseW(b *linalg.Dense, workers int) *linalg.Dense {
	if b.Rows != m.Cols {
		panic(fmt.Sprintf("sparse: MulDenseW shape mismatch %d×%d · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := linalg.NewDense(m.Rows, b.Cols)
	w := par.Workers(workers)
	if 2*m.NNZ()*b.Cols < spMinFlops {
		w = 1
	}
	par.ForChunks(m.Rows, w, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Row(i)
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				linalg.Axpy(orow, m.Val[p], b.Row(int(m.ColIdx[p])))
			}
		}
	})
	return out
}

// TMulDenseW returns mᵀ·b for a dense b (Rows×k), i.e. a (Cols×k)
// result, with a worker budget over output-row panels, which are column
// ranges of m. Cost O(nnz·k), plus a binary search per input row and
// panel. Each panel walks the input rows in ascending order and, in each,
// only the entries inside the panel (ColIdx is sorted within a row), so
// every output element sums its terms in input-row order: the result is
// identical for every worker count.
func (m *CSR) TMulDenseW(b *linalg.Dense, workers int) *linalg.Dense {
	if b.Rows != m.Rows {
		panic(fmt.Sprintf("sparse: TMulDenseW shape mismatch (%d×%d)ᵀ · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := linalg.NewDense(m.Cols, b.Cols)
	w := par.Workers(workers)
	if 2*m.NNZ()*b.Cols < spMinFlops {
		w = 1
	}
	par.ForChunks(m.Cols, w, func(lo, hi int) {
		for i := 0; i < m.Rows; i++ {
			p, end := int(m.RowPtr[i]), int(m.RowPtr[i+1])
			first, _ := slices.BinarySearch(m.ColIdx[p:end], int32(lo))
			brow := b.Row(i)
			for p += first; p < end && int(m.ColIdx[p]) < hi; p++ {
				linalg.Axpy(out.Row(int(m.ColIdx[p])), m.Val[p], brow)
			}
		}
	})
	return out
}
