package check

import (
	"fmt"
	"math"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// OptimalityMaxRows is the largest |S| Optimality accepts. Its
// eigensolve is O(|S|³): about 1 ms at |S| = 128 and 0.5 s at 1 024 on a
// 2-thread x86 box, and 15× that at the paper's |S| = 3 000.
const OptimalityMaxRows = 1024

// Optimality is the exact yardstick for a rank-d subset embedding: it
// measures the basis u (|S|×r orthonormal, the root's U) against the
// optimal rank-d approximation of the proximity matrix m (|S|×n).
// optRelErr = ‖M − (M)_d‖_F/‖M‖_F = √(1 − Σ_{i≤d} λ_i/‖M‖²_F), with λ
// the eigenvalues of the |S|×|S| Gram M·Mᵀ (Eckart–Young). It is
// accumulated column by column from the frozen CSR, Σ_c nnz(c)² flops,
// and only its eigenvalues are computed. reconOverOpt is u's relative
// projection error ‖M − U·Uᵀ·M‖_F/‖M‖_F over optRelErr: 1 is optimal,
// and every approximation — randomized level 1, lazy blocks, the tree
// and the upper-level gate — shows as the excess. When optRelErr is 0,
// reconOverOpt is 1 if u reproduces m too, +Inf otherwise; at
// d ≥ rank(M) both errors are rounding noise and so is their ratio.
// Above OptimalityMaxRows it refuses with an error saying so.
func Optimality(m *sparse.CSR, u *linalg.Dense, d int) (optRelErr, reconOverOpt float64, err error) {
	if m.Rows > OptimalityMaxRows {
		return 0, 0, fmt.Errorf("check: optimality: |S| = %d exceeds %d, where the O(|S|³) Gram eigensolve stops being a cheap yardstick",
			m.Rows, OptimalityMaxRows)
	}
	if u.Rows != m.Rows {
		return 0, 0, fmt.Errorf("check: optimality: basis has %d rows, matrix has %d", u.Rows, m.Rows)
	}
	g := linalg.NewDense(m.Rows, m.Rows)
	cols := m.Transpose() // row c lists column c of m
	for c := 0; c < cols.Rows; c++ {
		lo, hi := cols.RowPtr[c], cols.RowPtr[c+1]
		for p := lo; p < hi; p++ {
			gi, vi := g.Row(int(cols.ColIdx[p])), cols.Val[p]
			for q := p; q < hi; q++ {
				gi[cols.ColIdx[q]] += vi * cols.Val[q]
			}
		}
	}
	// Rows within a column are ascending, so only the upper triangle
	// was written.
	for i := 0; i < g.Rows; i++ {
		for j := i + 1; j < g.Cols; j++ {
			g.Data[j*g.Cols+i] = g.Data[i*g.Cols+j]
		}
	}
	normSq := m.FrobNorm() * m.FrobNorm()
	if normSq == 0 {
		return 0, 1, nil
	}
	optSq := normSq
	for i, l := range linalg.SymEigvals(g, 1) {
		if i == d {
			break
		}
		optSq -= max(l, 0)
	}
	proj := m.TMulDenseW(u, 1).FrobNorm()
	recon := math.Sqrt(max(normSq-proj*proj, 0) / normSq)
	optRelErr = math.Sqrt(max(optSq, 0) / normSq)
	switch {
	case optRelErr > 0:
		return optRelErr, recon / optRelErr, nil
	case recon == 0:
		return 0, 1, nil
	}
	return 0, math.Inf(1), nil
}
