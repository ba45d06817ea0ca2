package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
)

// lowerSparseFlopGate drops the dispatch floor so small test matrices
// exercise the parallel sparse kernels; restored via t.Cleanup.
func lowerSparseFlopGate(t *testing.T) {
	t.Helper()
	old := spMinFlops
	spMinFlops = 1
	t.Cleanup(func() { spMinFlops = old })
}

func TestMulDenseWMatchesSerial(t *testing.T) {
	lowerSparseFlopGate(t)
	rng := rand.New(rand.NewSource(31))
	for _, sh := range []struct{ r, c, k int }{{1, 1, 1}, {9, 5, 3}, {60, 40, 7}, {0, 4, 3}} {
		m := randCSR(rng, sh.r, sh.c, 0.3)
		b := randDense(rng, sh.c, sh.k)
		ref := m.MulDenseW(b, 1)
		for _, w := range []int{2, 3, 8} {
			if d := linalg.MaxAbsDiff(ref, m.MulDenseW(b, w)); d != 0 {
				t.Fatalf("%v workers=%d: differs by %g (must be bit-identical)", sh, w, d)
			}
		}
	}
}

// TestTMulDenseWMatchesSerial holds the transpose-product to one bit
// pattern for every worker count. The wide shapes put many output panels
// on each input row, so the binary search that finds a panel's first
// entry in a row starts mid-row.
func TestTMulDenseWMatchesSerial(t *testing.T) {
	lowerSparseFlopGate(t)
	rng := rand.New(rand.NewSource(41))
	for _, sh := range []struct{ r, c, k int }{{1, 1, 1}, {9, 5, 3}, {60, 40, 7}, {200, 30, 5}, {0, 4, 3}, {7, 300, 4}, {30, 500, 9}} {
		m := randCSR(rng, sh.r, sh.c, 0.3)
		b := randDense(rng, sh.r, sh.k)
		ref := m.TMulDenseW(b, 1)
		for _, w := range []int{2, 3, 8} {
			if d := linalg.MaxAbsDiff(ref, m.TMulDenseW(b, w)); d != 0 {
				t.Fatalf("%v workers=%d: differs by %g (must be bit-identical)", sh, w, d)
			}
		}
	}
}

// TestDynRowTMulDense checks the direct-from-maps transpose product
// against the CSR route it replaces in ReconstructionError. The two visit
// each output row's contributions in the same ascending input-row order,
// so they must agree exactly.
func TestDynRowTMulDense(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := NewDynRow(12, 50, 5)
	for i := 0; i < 200; i++ {
		m.Set(rng.Intn(12), rng.Intn(50), rng.NormFloat64())
	}
	b := randDense(rng, 12, 7)
	want := m.ToCSR().TMulDenseW(b, 1)
	if d := linalg.MaxAbsDiff(want, m.TMulDense(b)); d != 0 {
		t.Fatalf("DynRow.TMulDense differs from CSR route by %g", d)
	}
}

// TestSparseProductsMatchNaiveBits holds MulDenseW and TMulDenseW (1, 2
// and 3 workers each) to plain loops bit for bit. The loops round
// each product on its own, float64(v·b), and accumulate in the kernels'
// order: output row i of m·b over row i's entries in storage order, and
// output row c of mᵀ·b over the input rows ascending. Widths 0–67 cover
// every tail of the SSE2 axpy; entries of both operands include signed
// zeros and subnormals, and the CSR stores a −0 explicitly.
func TestSparseProductsMatchNaiveBits(t *testing.T) {
	lowerSparseFlopGate(t)
	rng := rand.New(rand.NewSource(47))
	value := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			return rng.NormFloat64() * 1e-310 // subnormal
		case 3:
			return math.SmallestNonzeroFloat64 * float64(rng.Intn(9)-4)
		default:
			return rng.NormFloat64()
		}
	}
	const rows, cols = 11, 9
	for k := 0; k <= 67; k++ {
		m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.4 {
					m.ColIdx = append(m.ColIdx, int32(j))
					m.Val = append(m.Val, value())
				}
			}
			m.RowPtr[i+1] = int32(len(m.Val))
		}
		b := linalg.NewDense(cols, k)
		bt := linalg.NewDense(rows, k)
		for _, d := range []*linalg.Dense{b, bt} {
			for i := range d.Data {
				d.Data[i] = value()
			}
		}
		mul := linalg.NewDense(rows, k)
		tmul := linalg.NewDense(cols, k)
		for i := 0; i < rows; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				v, c := m.Val[p], int(m.ColIdx[p])
				for j := 0; j < k; j++ {
					mul.Data[i*k+j] += float64(v * b.At(c, j))
					tmul.Data[c*k+j] += float64(v * bt.At(i, j))
				}
			}
		}
		check := func(name string, got, want *linalg.Dense) {
			t.Helper()
			for i := range want.Data {
				if g, w := got.Data[i], want.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("k=%d %s: element %d is %x, naive loop %x", k, name, i, math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
		for _, w := range []int{1, 2, 3} {
			check(fmt.Sprintf("MulDenseW workers=%d", w), m.MulDenseW(b, w), mul)
			check(fmt.Sprintf("TMulDenseW workers=%d", w), m.TMulDenseW(bt, w), tmul)
		}
	}
}

// BenchmarkTMulDense times the transpose-product above the flop floor at
// three level-1 block shapes, rows × cols with k dense columns, each at
// fill 1 %: 128 × 9 000 with k 16 (the system benchmark's |S| and d),
// 1 024 × 3 200 with k 40 (d 32 plus the 8 oversamples) and
// 3 000 × 15 000 with k 136 (d 128 plus 8).
func BenchmarkTMulDense(b *testing.B) {
	for _, sh := range []struct{ r, c, k int }{{128, 9000, 16}, {1024, 3200, 40}, {3000, 15000, 136}} {
		rng := rand.New(rand.NewSource(53))
		bld := NewBuilder(sh.r, sh.c)
		for n := sh.r * sh.c / 100; n > 0; n-- {
			bld.Add(rng.Intn(sh.r), rng.Intn(sh.c), rng.NormFloat64())
		}
		m := bld.Build()
		y := randDense(rng, sh.r, sh.k)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dx%d_k%d/w%d", sh.r, sh.c, sh.k, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.TMulDenseW(y, w)
				}
			})
		}
	}
}
