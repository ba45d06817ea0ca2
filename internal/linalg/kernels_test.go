package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// lowerFlopGate drops the goroutine-dispatch floor so small test matrices
// exercise the genuinely parallel kernel paths; restored via t.Cleanup.
func lowerFlopGate(t *testing.T) {
	t.Helper()
	old := parMinFlops
	parMinFlops = 1
	t.Cleanup(func() { parMinFlops = old })
}

// sparseRandDense draws a matrix with a mix of zero and N(0,1) entries so
// the zero-skip dispatch in axpyPair is exercised.
func sparseRandDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		if rng.Intn(3) != 0 {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// sumTol returns the comparison tolerance for a reduction over k terms of
// magnitude ≤ scale: reassociated summation error grows with k.
func sumTol(k int, scale float64) float64 {
	return 1e-12 * float64(k+1) * math.Max(scale, 1)
}

func maxAbs(m *Dense) float64 {
	var s float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// kernelCase is one (op, result, reference, reductionLength) quadruple.
type kernelCase struct {
	op       string
	got, ref *Dense
	k        int
}

// TestKernelsMatchNaive drives every product kernel across shapes that
// cover the degenerate (empty, single row/column), the sub-tile, and the
// tile-crossing regimes (a.Cols > tileK, b.Cols > tileJ), for worker
// budgets on both sides of the dispatch path, against naive
// triple-loop references. It also asserts the cross-worker-count
// determinism contract: every dense kernel must return bit-identical
// results for any worker budget.
func TestKernelsMatchNaive(t *testing.T) {
	lowerFlopGate(t)
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ r, k, c int }{
		{0, 0, 0}, {0, 3, 4}, {3, 0, 4}, {3, 4, 0},
		{1, 1, 1}, {1, 5, 2}, {5, 1, 3}, {3, 7, 5},
		{33, 65, 17},   // crosses tileK in the reduction dim
		{20, 130, 21},  // two tileK panels plus remainder
		{4, 70, 520},   // crosses tileJ in the output dim
		{13, 129, 514}, // crosses both, odd remainders
	}
	for _, sh := range shapes {
		a := sparseRandDense(rng, sh.r, sh.k)
		b := sparseRandDense(rng, sh.k, sh.c)
		at := a.T()
		bt := b.T()
		for _, w := range []int{0, 1, 2, 3, 8} {
			cases := []kernelCase{
				{"MulW", MulW(a, b, w), naiveMul(a, b), sh.k},
				{"MulTW", MulTW(a, bt, w), naiveMul(a, b), sh.k},
				{"TMulW", TMulW(at, b, w), naiveMul(a, b), sh.k},
				{"GramW", GramW(a, w), naiveMul(at, a), sh.r},
				{"GramTW", GramTW(a, w), naiveMul(a, at), sh.k},
			}
			for _, c := range cases {
				tol := sumTol(c.k, maxAbs(c.ref))
				if d := MaxAbsDiff(c.got, c.ref); d > tol {
					t.Fatalf("%s shape %v workers %d: diff %g > tol %g", c.op, sh, w, d, tol)
				}
			}
			if w > 1 {
				pairs := []kernelCase{
					{"MulW", MulW(a, b, w), MulW(a, b, 1), 0},
					{"MulTW", MulTW(a, bt, w), MulTW(a, bt, 1), 0},
					{"TMulW", TMulW(at, b, w), TMulW(at, b, 1), 0},
					{"GramW", GramW(a, w), GramW(a, 1), 0},
					{"GramTW", GramTW(a, w), GramTW(a, 1), 0},
				}
				for _, c := range pairs {
					if d := MaxAbsDiff(c.got, c.ref); d != 0 {
						t.Fatalf("%s shape %v: workers=%d differs from serial by %g (must be bit-identical)", c.op, sh, w, d)
					}
				}
			}
		}
	}
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 67; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		var ref, scale float64
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			ref += a[i] * b[i]
			if x := math.Abs(a[i] * b[i]); x > scale {
				scale = x
			}
		}
		if d := math.Abs(Dot(a, b) - ref); d > sumTol(n, scale) {
			t.Fatalf("Dot len %d: diff %g", n, d)
		}
	}
}

func TestHCatIntoMatchesHCat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ms := []*Dense{sparseRandDense(rng, 6, 3), sparseRandDense(rng, 6, 0), sparseRandDense(rng, 6, 5)}
	want := HCat(ms...)
	dst := GetDense(6, 8)
	if d := MaxAbsDiff(HCatInto(dst, ms...), want); d != 0 {
		t.Fatalf("HCatInto differs from HCat by %g", d)
	}
	PutDense(dst)
	defer func() {
		if recover() == nil {
			t.Fatal("HCatInto accepted a column-count mismatch")
		}
	}()
	HCatInto(NewDense(6, 9), ms...)
}

func TestGetDenseReturnsZeroed(t *testing.T) {
	m := GetDense(4, 5)
	for i := range m.Data {
		m.Data[i] = 42
	}
	PutDense(m)
	// Same capacity class: likely the same backing array, must be zeroed.
	n := GetDense(5, 4)
	for i, v := range n.Data {
		if v != 0 {
			t.Fatalf("pooled matrix not zeroed at %d: %g", i, v)
		}
	}
	if n.Rows != 5 || n.Cols != 4 {
		t.Fatalf("pooled matrix has shape %d×%d", n.Rows, n.Cols)
	}
	PutDense(n)
}

// TestSymEigWMatchesSerial checks the cross-worker determinism of the
// parallel tred2/tql2 passes: with the dispatch gate lowered, the
// worker-budgeted eigensolve must be bit-identical to the serial one.
func TestSymEigWMatchesSerial(t *testing.T) {
	lowerFlopGate(t)
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{2, 9, 40, 130} {
		b := sparseRandDense(rng, n, n)
		a := Add(b, b.T())
		l1, v1 := SymEigW(a, 1)
		for _, w := range []int{2, 8} {
			lw, vw := SymEigW(a, w)
			for i := range l1 {
				if l1[i] != lw[i] {
					t.Fatalf("n=%d workers=%d: eigenvalue %d differs: %g vs %g", n, w, i, l1[i], lw[i])
				}
			}
			if d := MaxAbsDiff(v1, vw); d != 0 {
				t.Fatalf("n=%d workers=%d: eigenvectors differ by %g (must be bit-identical)", n, w, d)
			}
		}
	}
}

func TestQRThinWMatchesSerial(t *testing.T) {
	lowerFlopGate(t)
	rng := rand.New(rand.NewSource(23))
	for _, sh := range []struct{ m, n int }{{1, 1}, {7, 3}, {40, 40}, {130, 33}} {
		a := sparseRandDense(rng, sh.m, sh.n)
		q1, r1 := QRThinW(a, 1)
		for _, w := range []int{2, 8} {
			qw, rw := QRThinW(a, w)
			if d := MaxAbsDiff(q1, qw); d != 0 {
				t.Fatalf("%v workers=%d: Q differs by %g (must be bit-identical)", sh, w, d)
			}
			if d := MaxAbsDiff(r1, rw); d != 0 {
				t.Fatalf("%v workers=%d: R differs by %g (must be bit-identical)", sh, w, d)
			}
		}
	}
}

func TestSVDWMatchesSerial(t *testing.T) {
	lowerFlopGate(t)
	rng := rand.New(rand.NewSource(29))
	for _, sh := range []struct{ m, n int }{{50, 30}, {30, 50}, {65, 65}} {
		a := sparseRandDense(rng, sh.m, sh.n)
		ref := SVD(a)
		for _, w := range []int{2, 8} {
			got := SVDW(a, w)
			if len(got.S) != len(ref.S) {
				t.Fatalf("%v workers=%d: rank %d vs %d", sh, w, len(got.S), len(ref.S))
			}
			for i := range ref.S {
				if ref.S[i] != got.S[i] {
					t.Fatalf("%v workers=%d: σ%d differs: %g vs %g", sh, w, i, ref.S[i], got.S[i])
				}
			}
			if d := MaxAbsDiff(ref.U, got.U); d != 0 {
				t.Fatalf("%v workers=%d: U differs by %g (must be bit-identical)", sh, w, d)
			}
			if d := MaxAbsDiff(ref.V, got.V); d != 0 {
				t.Fatalf("%v workers=%d: V differs by %g (must be bit-identical)", sh, w, d)
			}
		}
	}
}
