package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// symWithSpectrum returns Q·diag(lam)·Qᵀ, Q a random orthogonal matrix, or
// diag(lam) itself when rotate is false (the repeats then stay exact and
// the tridiagonal is already diagonal).
func symWithSpectrum(rng *rand.Rand, lam []float64, rotate bool) *Dense {
	n := len(lam)
	q := Identity(n)
	if rotate {
		q = Orthonormalize(randDense(rng, n, n))
	}
	return MulT(q.Clone().MulDiag(lam), q)
}

// gramEigRoute runs gramEig on a copy of g down the chosen route and
// fails the test if the top-d route was asked for and fell back.
func gramEigRoute(t *testing.T, g *Dense, d, workers int, full bool) ([]float64, *Dense) {
	t.Helper()
	ForceFullEig.Store(full)
	defer ForceFullEig.Store(false)
	before := eigFallbacks.Load()
	s, v := gramEig(g.Clone(), d, workers)
	if eigFallbacks.Load() != before {
		t.Fatalf("top-d route fell back to the full solver")
	}
	return s, v
}

// checkTopEig holds the top-d route's answer on the symmetric PSD g to
// the full route's, to SymEigW's and to JacobiSymEig's.
func checkTopEig(t *testing.T, label string, g *Dense, d int) {
	t.Helper()
	n := g.Rows
	s, v := gramEigRoute(t, g, d, 1, false)
	sFull, vFull := gramEigRoute(t, g, d, 1, true)
	lamQL, _ := SymEigW(g, 1)
	lamJ, _ := JacobiSymEig(g)
	want := sigmaFromLambda(lamQL, d)
	if len(s) != len(want) || len(sFull) != len(want) || v.Rows != n || v.Cols != len(s) {
		t.Fatalf("%s: kept %d (full route %d, SymEigW %d), V %d×%d", label, len(s), len(sFull), len(want), v.Rows, v.Cols)
	}
	if len(s) == 0 {
		return
	}
	lmax := lamQL[0]
	for i := range s {
		if s[i] != want[i] || s[i] != sFull[i] {
			t.Fatalf("%s: σ%d = %v, full route %v, SymEigW %v (must be the same bits)", label, i, s[i], sFull[i], want[i])
		}
		if i > 0 && s[i] > s[i-1] {
			t.Fatalf("%s: σ not descending at %d", label, i)
		}
		if diff := math.Abs(s[i]*s[i] - lamJ[i]); diff > 1e-10*lmax {
			t.Fatalf("%s: λ%d = %g, Jacobi %g", label, i, s[i]*s[i], lamJ[i])
		}
	}
	checkOrthonormalCols(t, v, 1e-13, label+" V")
	gv := Mul(g, v)
	for j := range s {
		var res float64
		for i := 0; i < n; i++ {
			r := gv.At(i, j) - s[j]*s[j]*v.At(i, j)
			res += r * r
		}
		if math.Sqrt(res) > 1e-13*lmax {
			t.Fatalf("%s: ‖G·v%d − λ·v%d‖ = %g·λ₁", label, j, j, math.Sqrt(res)/lmax)
		}
	}
	// Invariant subspaces agree when the cut does not split a cluster.
	next := 0.0
	if len(s) < n {
		next = lamQL[len(s)]
	}
	if gap := (lamQL[len(s)-1] - next) / lmax; gap > 1e-9 {
		if diff := MaxAbsDiff(MulT(v, v), MulT(vFull, vFull)); diff > 1e-12+1e-13/gap {
			t.Fatalf("%s: kept subspaces differ by %g (gap %g)", label, diff, gap)
		}
	}
}

func TestTopEigSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	graded := make([]float64, 64)
	for i := range graded {
		graded[i] = math.Pow(10, -12*float64(i)/63)
	}
	repeated := make([]float64, 40)
	for i := range repeated {
		repeated[i] = 0.25 / float64(1+i)
	}
	copy(repeated, []float64{4, 4, 4, 2, 2, 2, 2, 1, 1, 0.5})
	ones := make([]float64, 32)
	for i := range ones {
		ones[i] = 3
	}
	lowRank := Mul(randDense(rng, 30, 5), randDense(rng, 5, 64))
	for _, c := range []struct {
		label string
		g     *Dense
		d     []int
	}{
		{"random SPD", Gram(randDense(rng, 80, 64)), []int{1, 8, 16, 32}},
		{"merge-like", Gram(MergeLike(rng, 50, 8, 8)), []int{8, 16}},
		{"merge-like tall", Gram(MergeLike(rng, 300, 8, 16)), []int{16, 32}},
		{"rank 5 < d", Gram(lowRank), []int{4, 5, 6, 16}},
		{"repeated", symWithSpectrum(rng, repeated, true), []int{2, 3, 5, 7, 9, 10, 20}},
		{"repeated, diagonal", symWithSpectrum(rng, repeated, false), []int{2, 3, 5, 7, 9, 10, 20}},
		{"3·I", symWithSpectrum(rng, ones, false), []int{1, 7, 16}},
		{"3·I rotated", symWithSpectrum(rng, ones, true), []int{1, 7, 16}},
		{"graded 1…1e-12", symWithSpectrum(rng, graded, true), []int{4, 16, 32}},
		{"zero", NewDense(16, 16), []int{0, 4, 8}},
	} {
		for _, d := range c.d {
			checkTopEig(t, fmt.Sprintf("%s n=%d d=%d", c.label, c.g.Rows, d), c.g, d)
		}
	}
}

// TestTopEigSmall sweeps tiny orders and every kind of cut, d ≥ n
// included: whichever route the rule picks must match the full one.
func TestTopEigSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 17} {
		g := Gram(randDense(rng, n+3, n))
		for _, d := range []int{0, 1, n / 2, n, n + 3} {
			checkTopEig(t, fmt.Sprintf("n=%d d=%d", n, d), g, d)
		}
	}
}

// svdBits fails unless two SVD results are the same bits.
func svdBits(t *testing.T, label string, a, b *SVDResult) {
	t.Helper()
	if len(a.S) != len(b.S) {
		t.Fatalf("%s: rank %d vs %d", label, len(a.S), len(b.S))
	}
	for i := range a.S {
		if a.S[i] != b.S[i] {
			t.Fatalf("%s: σ%d differs: %v vs %v", label, i, a.S[i], b.S[i])
		}
	}
	if du, dv := MaxAbsDiff(a.U, b.U), MaxAbsDiff(a.V, b.V); du != 0 || dv != 0 {
		t.Fatalf("%s: U differs by %g, V by %g (must be bit-identical)", label, du, dv)
	}
}

// TestSVDTruncRoutesAgree compares the factors themselves: with the sign
// convention of svdLimited the two routes return the same U, Σ and V to
// rounding, in both orientations, and the top-d route is bit-identical
// across worker budgets.
func TestSVDTruncRoutesAgree(t *testing.T) {
	lowerFlopGate(t)
	rng := rand.New(rand.NewSource(43))
	for _, c := range []struct {
		a *Dense
		d int
	}{
		{randDense(rng, 128, 64), 8},
		{randDense(rng, 40, 100), 8},
		{MergeLike(rng, 128, 8, 16), 16},
		{MergeLike(rng, 96, 4, 32), 32},
	} {
		label := fmt.Sprintf("%d×%d d=%d", c.a.Rows, c.a.Cols, c.d)
		before := eigFallbacks.Load()
		got := SVDTruncW(c.a, c.d, 1)
		for _, w := range []int{2, 4} {
			svdBits(t, fmt.Sprintf("%s workers=%d", label, w), got, SVDTruncW(c.a, c.d, w))
		}
		if eigFallbacks.Load() != before {
			t.Fatalf("%s: top-d route fell back", label)
		}
		ForceFullEig.Store(true)
		full := SVDTruncW(c.a, c.d, 1)
		ForceFullEig.Store(false)
		if len(got.S) != c.d || len(full.S) != c.d {
			t.Fatalf("%s: ranks %d, %d", label, len(got.S), len(full.S))
		}
		for i := range got.S {
			if got.S[i] != full.S[i] {
				t.Fatalf("%s: σ%d differs between routes", label, i)
			}
		}
		if du, dv := MaxAbsDiff(got.U, full.U), MaxAbsDiff(got.V, full.V); du > 1e-10 || dv > 1e-10 {
			t.Fatalf("%s: routes differ, U by %g, V by %g", label, du, dv)
		}
		for j := 0; j < c.d; j++ {
			big := 0.0
			for i := 0; i < got.U.Rows; i++ {
				if x := got.U.At(i, j); math.Abs(x) > math.Abs(big) {
					big = x
				}
			}
			if big <= 0 {
				t.Fatalf("%s: largest entry of u%d is %g, want positive", label, j, big)
			}
		}
	}
}

// TestTopEigFallback closes the residual gate: the call must notice,
// count it, and return exactly what the full route returns.
func TestTopEigFallback(t *testing.T) {
	old := eigResidualGate
	eigResidualGate = -1
	defer func() { eigResidualGate = old }()
	a := MergeLike(rand.New(rand.NewSource(44)), 64, 8, 8)
	before := eigFallbacks.Load()
	got := SVDTruncW(a, 8, 1)
	if n := eigFallbacks.Load() - before; n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
	ForceFullEig.Store(true)
	defer ForceFullEig.Store(false)
	svdBits(t, "fallback vs full route", got, SVDTruncW(a, 8, 1))
	if n := eigFallbacks.Load() - before; n != 1 {
		t.Fatalf("the forced full route counted as a fallback")
	}
}
