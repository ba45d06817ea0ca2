package baselines

import (
	"math"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// FrequentDirections is the Liberty matrix sketch underlying FREDE: a
// 2ℓ×n buffer absorbs rows one at a time; whenever the buffer fills, an
// SVD compresses it and shrinks every singular value by the ℓ-th one,
// guaranteeing ‖AᵀA − BᵀB‖₂ ≤ ‖A‖²_F/ℓ.
type FrequentDirections struct {
	l, n int
	buf  *linalg.Dense // 2l×n
	used int           // occupied rows of buf
}

// NewFrequentDirections creates a sketch with ℓ retained directions over
// n-dimensional rows.
func NewFrequentDirections(l, n int) *FrequentDirections {
	return &FrequentDirections{l: l, n: n, buf: linalg.NewDense(2*l, n)}
}

// AppendSparse inserts one row given as (column, value) pairs.
func (fd *FrequentDirections) AppendSparse(cols []int32, vals []float64) {
	if fd.used == 2*fd.l {
		fd.shrink()
	}
	row := fd.buf.Row(fd.used)
	for i := range row {
		row[i] = 0
	}
	for i, c := range cols {
		row[c] = vals[i]
	}
	fd.used++
}

// shrink compresses the buffer: SVD, subtract σ_ℓ² energy, keep ℓ rows.
func (fd *FrequentDirections) shrink() {
	res := linalg.SVDW(fd.buf, 1)
	cut := 0.0
	if len(res.S) > fd.l {
		cut = res.S[fd.l-1] * res.S[fd.l-1]
	}
	keep := fd.l
	if keep > len(res.S) {
		keep = len(res.S)
	}
	for i := range fd.buf.Data {
		fd.buf.Data[i] = 0
	}
	for r := 0; r < keep; r++ {
		s2 := res.S[r]*res.S[r] - cut
		if s2 <= 0 {
			keep = r
			break
		}
		s := math.Sqrt(s2)
		row := fd.buf.Row(r)
		for c := 0; c < fd.n; c++ {
			row[c] = s * res.V.At(c, r)
		}
	}
	fd.used = keep
}

// Sketch returns the current ℓ×n sketch matrix (a final shrink is applied
// if the buffer holds more than ℓ rows).
func (fd *FrequentDirections) Sketch() *linalg.Dense {
	if fd.used > fd.l {
		fd.shrink()
	}
	out := linalg.NewDense(fd.l, fd.n)
	copy(out.Data, fd.buf.Data[:fd.l*fd.n])
	return out
}

// FREDE sketches the rows of a proximity matrix with frequent directions
// and derives embeddings from the single maintained sketch (Section 2.2:
// unlike Tree-SVD it keeps one compressed result, provides no Frobenius
// guarantee for the d-rank factorization, and cannot reuse past results on
// updates). Left embedding: X = M·V_B·Σ_B^{-1/2}; right: Y = V_B·Σ_B^{1/2}.
func FREDE(m *sparse.CSR, dim int) *STRAPResult {
	fd := NewFrequentDirections(dim, m.Cols)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		fd.AppendSparse(m.ColIdx[lo:hi], m.Val[lo:hi])
	}
	sk := fd.Sketch()
	res := linalg.SVDW(sk, 1)
	if res.Rank() == 0 {
		return &STRAPResult{Left: linalg.NewDense(m.Rows, 0), Right: linalg.NewDense(m.Cols, 0)}
	}
	invSqrt := make([]float64, len(res.S))
	sqrtS := make([]float64, len(res.S))
	for i, s := range res.S {
		sqrtS[i] = math.Sqrt(s)
		invSqrt[i] = 1 / sqrtS[i]
	}
	left := m.MulDenseW(res.V, 1).MulDiag(invSqrt)
	right := res.V.Clone().MulDiag(sqrtS)
	return &STRAPResult{Left: left, Right: right}
}
