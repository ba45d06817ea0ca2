// Package sparse provides the sparse-matrix substrate for Tree-SVD: an
// immutable CSR matrix used by the randomized SVD kernels, and DynRow, a
// mutable row-sparse matrix that the PPR engine updates in place while the
// lazy-update machinery tracks per-column-block Frobenius norms and deltas.
package sparse

import (
	"fmt"
	"sort"

	"github.com/tree-svd/treesvd/internal/linalg"
)

// CSR is an immutable compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32   // len Rows+1
	ColIdx     []int32   // len nnz, sorted within each row
	Val        []float64 // len nnz
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// FrobNorm returns the Frobenius norm.
func (m *CSR) FrobNorm() float64 { return linalg.Norm2(m.Val) }

// ToDense materializes the matrix densely (tests and small matrices only).
func (m *CSR) ToDense() *linalg.Dense {
	out := linalg.NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		orow := out.Row(i)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			orow[m.ColIdx[p]] = m.Val[p]
		}
	}
	return out
}

// SliceColsCSR extracts the column range [lo,hi) as a new CSR with column
// indices rebased to start at 0. Cost O(Rows·log(nnz/row) + output nnz).
func (m *CSR) SliceColsCSR(lo, hi int) *CSR {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("sparse: SliceColsCSR [%d,%d) out of 0..%d", lo, hi, m.Cols))
	}
	out := &CSR{Rows: m.Rows, Cols: hi - lo, RowPtr: make([]int32, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		s, e := m.RowPtr[i], m.RowPtr[i+1]
		idx := m.ColIdx[s:e]
		a := sort.Search(len(idx), func(p int) bool { return idx[p] >= int32(lo) })
		b := sort.Search(len(idx), func(p int) bool { return idx[p] >= int32(hi) })
		for p := a; p < b; p++ {
			out.ColIdx = append(out.ColIdx, idx[p]-int32(lo))
			out.Val = append(out.Val, m.Val[int(s)+p])
		}
		out.RowPtr[i+1] = int32(len(out.Val))
	}
	return out
}

// Builder accumulates triplets and assembles a CSR. Duplicate (i,j) entries
// are summed.
type Builder struct {
	rows, cols int
	is, js     []int32
	vs         []float64
}

// NewBuilder creates a builder for an r×c matrix.
func NewBuilder(r, c int) *Builder { return &Builder{rows: r, cols: c} }

// Add records a triplet. Zero values are kept out.
func (b *Builder) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add (%d,%d) out of %d×%d", i, j, b.rows, b.cols))
	}
	b.is = append(b.is, int32(i))
	b.js = append(b.js, int32(j))
	b.vs = append(b.vs, v)
}

// Build assembles the CSR, summing duplicates and dropping resulting zeros.
func (b *Builder) Build() *CSR {
	n := len(b.vs)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(x, y int) bool {
		a, c := order[x], order[y]
		if b.is[a] != b.is[c] {
			return b.is[a] < b.is[c]
		}
		return b.js[a] < b.js[c]
	})
	out := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int32, b.rows+1)}
	for k := 0; k < n; {
		p := order[k]
		i, j := b.is[p], b.js[p]
		sum := b.vs[p]
		k++
		for k < n && b.is[order[k]] == i && b.js[order[k]] == j {
			sum += b.vs[order[k]]
			k++
		}
		if sum != 0 {
			out.ColIdx = append(out.ColIdx, j)
			out.Val = append(out.Val, sum)
			out.RowPtr[i+1]++
		}
	}
	for i := 0; i < b.rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out
}

// Transpose returns the CSC-equivalent of m as a new CSR (rows and
// columns swapped) via counting sort — O(nnz + Rows + Cols).
func (m *CSR) Transpose() *CSR {
	out := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int32, m.Cols+1)}
	out.ColIdx = make([]int32, m.NNZ())
	out.Val = make([]float64, m.NNZ())
	// Count entries per column of m.
	for _, c := range m.ColIdx {
		out.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	next := append([]int32(nil), out.RowPtr[:m.Cols]...)
	for r := 0; r < m.Rows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			c := m.ColIdx[p]
			slot := next[c]
			next[c]++
			out.ColIdx[slot] = int32(r)
			out.Val[slot] = m.Val[p]
		}
	}
	return out
}
