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
				{"gramT", gramT(a, w), naiveMul(a, at), sh.k},
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
					{"gramT", gramT(a, w), gramT(a, 1), 0},
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

// kernelValue draws one input for TestKernelsMatchGeneric: mostly N(0,1),
// otherwise an edge of float64 — signed zeros, subnormals, values whose
// products overflow or underflow and, when special is set, ±Inf and NaN.
func kernelValue(rng *rand.Rand, special bool) float64 {
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-320, 1e300, -1e300, 1e-300, -1e-300, 1.5}
	if special {
		edges = append(edges, math.Inf(1), math.Inf(-1), math.NaN())
	}
	if rng.Intn(4) != 0 {
		return rng.NormFloat64()
	}
	return edges[rng.Intn(len(edges))]
}

// sameBits reports whether two results are the same float64 bit for bit.
// Two NaNs match whatever their payloads: the Go spec leaves a NaN
// result's payload and sign open, and the compiler commutes the operands
// of + and * freely, so the generic loops fix neither.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// TestKernelsMatchGeneric holds Dot, Axpy and axpy2 — assembly on amd64 —
// to the portable Go loops bit for bit, at every length up to 67 (every
// n mod 4 tail), from aligned and unaligned starts, on finite edge values
// and on ±Inf and NaN. A length mismatch must still panic.
func TestKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fill := func(n, off int, special bool) []float64 {
		v := make([]float64, n+off)[off:]
		for i := range v {
			v[i] = kernelValue(rng, special)
		}
		return v
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 1; off++ {
			for trial := 0; trial < 16; trial++ {
				special := trial%4 == 3
				a, b := fill(n, off, special), fill(n, 1-off, special)
				if got, want := Dot(a, b), dotGeneric(a, b); !sameBits(got, want) {
					t.Fatalf("Dot n=%d off=%d trial %d: %x, generic %x", n, off, trial, math.Float64bits(got), math.Float64bits(want))
				}
				dst := fill(n, off, special)
				x0, x1 := fill(n, 1-off, special), fill(n, off, special)
				a0, a1 := kernelValue(rng, special), kernelValue(rng, special)
				for _, op := range []string{"Axpy", "axpy2"} {
					got := append(make([]float64, off), dst...)[off:]
					want := append([]float64(nil), dst...)
					if op == "Axpy" {
						Axpy(got, a0, x0)
						axpyGeneric(want, a0, x0)
					} else {
						axpy2(got, a0, x0, a1, x1)
						axpy2Generic(want, a0, x0, a1, x1)
					}
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%s n=%d off=%d trial %d: element %d is %x, generic %x", op, n, off, trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
	short, long := make([]float64, 2), make([]float64, 3)
	for name, call := range map[string]func(){
		"Dot":   func() { Dot(long, short) },
		"Axpy":  func() { Axpy(long, 1, short) },
		"axpy2": func() { axpy2(long, 1, long, 1, short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a shorter operand", name)
				}
			}()
			call()
		}()
	}
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
		ref := SVDW(a, 1)
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
