package treesvd

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestFactorizeMatrixLowRank(t *testing.T) {
	// Exact rank-3 matrix: Tree-SVD must recover it to numerical
	// precision (singular values and reconstruction).
	rng := rand.New(rand.NewSource(1))
	rows, cols, rank := 12, 200, 3
	u := make([][]float64, rows)
	v := make([][]float64, cols)
	for i := range u {
		u[i] = make([]float64, rank)
		for k := range u[i] {
			u[i][k] = rng.NormFloat64()
		}
	}
	for j := range v {
		v[j] = make([]float64, rank)
		for k := range v[j] {
			v[j][k] = rng.NormFloat64()
		}
	}
	m := NewSparseMatrix(rows, cols)
	dense := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		dense[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			var s float64
			for k := 0; k < rank; k++ {
				s += u[i][k] * v[j][k]
			}
			dense[i][j] = s
			m.Set(i, j, s)
		}
	}
	res, err := FactorizeMatrix(m, Config{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank() != 3 {
		t.Fatalf("rank %d, want 3", res.Rank())
	}
	// Reconstruct and compare.
	var maxDiff float64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var s float64
			for k := 0; k < res.Rank(); k++ {
				s += res.U[i][k] * res.S[k] * res.V[j][k]
			}
			if d := math.Abs(s - dense[i][j]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 1e-6 {
		t.Fatalf("reconstruction max diff %g", maxDiff)
	}
	// Singular values descending and positive.
	for k := 1; k < res.Rank(); k++ {
		if res.S[k] > res.S[k-1] || res.S[k] <= 0 {
			t.Fatalf("singular values not descending-positive: %v", res.S)
		}
	}
}

func TestFactorizeMatrixEmpty(t *testing.T) {
	m := NewSparseMatrix(4, 10)
	if _, err := FactorizeMatrix(m, Config{Dim: 2}); err == nil {
		t.Fatal("empty matrix accepted")
	}
}

// TestFactorizeMatrixRefusesNonFinite holds FactorizeMatrix to a plain
// error, naming the offending entry or norm, for a matrix whose Gram
// matrix would overflow the eigensolver: a NaN, an infinite entry, and a
// finite entry whose square overflows. None may surface as a recovered
// worker panic, with the serial or the parallel tree.
func TestFactorizeMatrixRefusesNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    float64
		want string
	}{
		{"NaN", math.NaN(), "(3, 17) is NaN"},
		{"-Inf", math.Inf(-1), "(3, 17) is -Inf"},
		{"+Inf", math.Inf(1), "(3, 17) is +Inf"},
		{"1e308", 1e308, "Frobenius norm 1e+308"},
	} {
		for _, workers := range []int{0, 2} {
			m := NewSparseMatrix(20, 400)
			for i := 0; i < 20; i++ {
				for j := i; j < 400; j += 5 {
					m.Set(i, j, float64(1+(i*j)%5))
				}
			}
			m.Set(3, 17, tc.v)
			_, err := FactorizeMatrix(m, Config{Dim: 4, Workers: workers})
			switch {
			case err == nil:
				t.Errorf("%s, workers %d: accepted", tc.name, workers)
			case strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s, workers %d: error %q, want one naming %q", tc.name, workers, err, tc.want)
			}
		}
	}
}

func TestFactorizeMatrixDuplicatesSummed(t *testing.T) {
	m := NewSparseMatrix(2, 4)
	m.Set(0, 1, 2)
	m.Set(0, 1, 3) // same cell: 5 total
	m.Set(1, 2, 5)
	res, err := FactorizeMatrix(m, Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Both rows have a single entry of magnitude 5: σ = {5, 5}.
	if math.Abs(res.S[0]-5) > 1e-9 || math.Abs(res.S[1]-5) > 1e-9 {
		t.Fatalf("singular values %v, want [5 5]", res.S)
	}
}

func TestFactorizeMatrixDims(t *testing.T) {
	m := NewSparseMatrix(3, 7)
	if r, c := m.Dims(); r != 3 || c != 7 {
		t.Fatal("Dims wrong")
	}
}
