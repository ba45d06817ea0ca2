package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/tree-svd/treesvd/internal/linalg"
)

func randCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// At returns the (i,j) element (binary search within the row).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	idx := m.ColIdx[lo:hi]
	k := sort.Search(len(idx), func(p int) bool { return idx[p] >= int32(j) })
	if k < len(idx) && idx[k] == int32(j) {
		return m.Val[int(lo)+k]
	}
	return 0
}

func randDense(rng *rand.Rand, r, c int) *linalg.Dense {
	m := linalg.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	b.Add(1, 2, -1)
	b.Add(1, 2, 1) // cancels to zero: must be dropped
	m := b.Build()
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("duplicate sum = %g, want 5", got)
	}
	if m.NNZ() != 1 {
		t.Fatalf("nnz = %d, want 1 (cancelled entry kept?)", m.NNZ())
	}
}

func TestBuilderZeroIgnored(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Add(0, 0, 0)
	if m := b.Build(); m.NNZ() != 0 {
		t.Fatalf("explicit zero stored")
	}
}

func TestCSRAtMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randCSR(rng, 12, 9, 0.3)
	d := m.ToDense()
	for i := 0; i < 12; i++ {
		for j := 0; j < 9; j++ {
			if m.At(i, j) != d.At(i, j) {
				t.Fatalf("At(%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestCSRMulDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randCSR(rng, 8, 11, 0.4)
	b := randDense(rng, 11, 5)
	got := m.MulDenseW(b, 1)
	want := linalg.MulW(m.ToDense(), b, 1)
	if d := linalg.MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("MulDense diff %g", d)
	}
}

func TestCSRTMulDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randCSR(rng, 8, 11, 0.4)
	b := randDense(rng, 8, 4)
	got := m.TMulDenseW(b, 1)
	want := linalg.MulW(m.ToDense().T(), b, 1)
	if d := linalg.MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("TMulDense diff %g", d)
	}
}

func TestCSRSliceCols(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randCSR(rng, 6, 20, 0.3)
	s := m.SliceColsCSR(5, 13)
	want := m.ToDense().SliceCols(5, 13)
	if d := linalg.MaxAbsDiff(s.ToDense(), want); d > 0 {
		t.Fatalf("SliceColsCSR diff %g", d)
	}
}

func TestCSRFrobNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randCSR(rng, 10, 10, 0.5)
	if d := math.Abs(m.FrobNorm() - m.ToDense().FrobNorm()); d > 1e-12 {
		t.Fatalf("FrobNorm diff %g", d)
	}
}

func TestCSRPropertyMulLinear(t *testing.T) {
	// Property: M·(x+y) == M·x + M·y for dense column vectors.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(10)
		c := 1 + rng.Intn(10)
		m := randCSR(rng, r, c, 0.5)
		x := randDense(rng, c, 1)
		y := randDense(rng, c, 1)
		lhs := m.MulDenseW(linalg.Add(x, y), 1)
		rhs := linalg.Add(m.MulDenseW(x, 1), m.MulDenseW(y, 1))
		return linalg.MaxAbsDiff(lhs, rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCSREmptyRows(t *testing.T) {
	b := NewBuilder(4, 4)
	b.Add(2, 1, 7)
	m := b.Build()
	if m.At(0, 0) != 0 || m.At(2, 1) != 7 {
		t.Fatal("empty-row matrix misbehaves")
	}
	x := linalg.NewDense(4, 1)
	x.Set(1, 0, 1)
	got := m.MulDenseW(x, 1)
	if got.At(2, 0) != 7 || got.At(0, 0) != 0 {
		t.Fatal("MulDense on empty-row matrix wrong")
	}
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randCSR(rng, 9, 14, 0.3)
	tr := m.Transpose()
	if tr.Rows != 14 || tr.Cols != 9 || tr.NNZ() != m.NNZ() {
		t.Fatalf("transpose shape %dx%d nnz %d", tr.Rows, tr.Cols, tr.NNZ())
	}
	if d := linalg.MaxAbsDiff(tr.ToDense(), m.ToDense().T()); d > 0 {
		t.Fatalf("transpose values differ: %g", d)
	}
	// Column indices sorted within rows (counting sort preserves order).
	for r := 0; r < tr.Rows; r++ {
		for p := tr.RowPtr[r] + 1; p < tr.RowPtr[r+1]; p++ {
			if tr.ColIdx[p-1] >= tr.ColIdx[p] {
				t.Fatalf("transpose row %d unsorted", r)
			}
		}
	}
	// Involution.
	if d := linalg.MaxAbsDiff(tr.Transpose().ToDense(), m.ToDense()); d > 0 {
		t.Fatal("double transpose != original")
	}
}

func TestCSRTransposeEmpty(t *testing.T) {
	m := NewBuilder(3, 5).Build()
	tr := m.Transpose()
	if tr.Rows != 5 || tr.Cols != 3 || tr.NNZ() != 0 {
		t.Fatal("empty transpose wrong")
	}
}
