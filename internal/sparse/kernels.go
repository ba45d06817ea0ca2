package sparse

import (
	"fmt"
	"sort"
	"sync"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/par"
)

// Sparse×dense product kernels, one entry point per product (MulDenseW,
// TMulDenseW), each taking a worker budget like the dense kernels in
// internal/linalg. Every product ends in linalg.Axpy, the module's one
// axpy loop, so the sparse products round each product before its add
// exactly as the dense kernels do, on every GOARCH.
//
// MulDenseW partitions its *output* rows, so each element is produced by
// exactly one worker with a fixed reduction order — bit-identical for
// every worker count, like the dense kernels. TMulDenseW is the one
// scatter-shaped product (output rows are indexed by column ids of the
// sparse operand); it uses per-worker partial outputs reduced in worker
// order, so its result varies with the worker count by O(ε) rounding.
// That is the single documented bit-stability exemption of the kernel
// layer (see DESIGN.md); embeddings are compared by tolerance, never
// bit-for-bit.

// spMinFlops gates goroutine dispatch, like linalg's parMinFlops. It is a
// variable only so tests can lower it to drive the parallel paths on
// small matrices; production code treats it as const.
var spMinFlops = 1 << 18

// spMaxPartialFloats caps the pooled partial-output scratch of
// TMulDenseW (floats, so 64 MB): the worker count is lowered until the
// extra buffers fit.
const spMaxPartialFloats = 1 << 23

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
// result, with a worker budget. Cost O(nnz·k). Workers process
// nnz-balanced contiguous stripes of input rows into private partial
// outputs (pooled; worker 0 writes the result directly), which are then
// summed in worker order. Deterministic for a fixed worker count; across
// worker counts the summation order differs, so results agree only to
// rounding — the kernel layer's one bit-stability exemption.
func (m *CSR) TMulDenseW(b *linalg.Dense, workers int) *linalg.Dense {
	if b.Rows != m.Rows {
		panic(fmt.Sprintf("sparse: TMulDenseW shape mismatch (%d×%d)ᵀ · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := linalg.NewDense(m.Cols, b.Cols)
	k := b.Cols
	w := par.Workers(workers)
	if w > m.Rows {
		w = m.Rows
	}
	for w > 1 && (w-1)*m.Cols*k > spMaxPartialFloats {
		w--
	}
	if w <= 1 || 2*m.NNZ()*k < spMinFlops {
		m.tMulDenseStripe(out, b, 0, m.Rows)
		return out
	}
	// nnz-balanced static row stripes: stripe g covers the rows whose
	// entry offsets fall in [g·nnz/w, (g+1)·nnz/w).
	bounds := make([]int, w+1)
	bounds[w] = m.Rows
	for g := 1; g < w; g++ {
		target := int32(g * m.NNZ() / w)
		bounds[g] = sort.Search(m.Rows, func(r int) bool { return m.RowPtr[r] >= target })
		if bounds[g] < bounds[g-1] {
			bounds[g] = bounds[g-1]
		}
	}
	partials := make([]*linalg.Dense, w)
	partials[0] = out
	for g := 1; g < w; g++ {
		partials[g] = linalg.GetDense(m.Cols, k)
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			m.tMulDenseStripe(partials[g], b, bounds[g], bounds[g+1])
		}(g)
	}
	wg.Wait()
	// Reduce in worker order, parallel over output-row panels.
	par.ForChunks(m.Cols, w, func(lo, hi int) {
		for g := 1; g < w; g++ {
			p := partials[g]
			for i := lo; i < hi; i++ {
				linalg.Axpy(out.Row(i), 1, p.Row(i))
			}
		}
	})
	for g := 1; g < w; g++ {
		linalg.PutDense(partials[g])
	}
	return out
}

// tMulDenseStripe accumulates mᵀ[·, rlo:rhi]·b[rlo:rhi] into out.
func (m *CSR) tMulDenseStripe(out, b *linalg.Dense, rlo, rhi int) {
	for i := rlo; i < rhi; i++ {
		brow := b.Row(i)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			linalg.Axpy(out.Row(int(m.ColIdx[p])), m.Val[p], brow)
		}
	}
}
