package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkOrthonormalCols verifies QᵀQ ≈ I.
func checkOrthonormalCols(t *testing.T, q *Dense, tol float64, label string) {
	t.Helper()
	g := Gram(q)
	if d := MaxAbsDiff(g, Identity(q.Cols)); d > tol {
		t.Fatalf("%s: columns not orthonormal, max deviation %g", label, d)
	}
}

func TestQRThinReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range [][2]int{{5, 5}, {10, 4}, {20, 7}, {3, 1}} {
		a := randDense(rng, dims[0], dims[1])
		q, r := QRThin(a)
		checkOrthonormalCols(t, q, 1e-10, "QR Q")
		if d := MaxAbsDiff(Mul(q, r), a); d > 1e-10 {
			t.Fatalf("QR %v: Q·R != A, diff %g", dims, d)
		}
		// R upper triangular.
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("R not upper triangular at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: QR must still reconstruct.
	a := NewDense(6, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		v := rng.NormFloat64()
		a.Set(i, 0, v)
		a.Set(i, 1, v)
		a.Set(i, 2, rng.NormFloat64())
	}
	q, r := QRThin(a)
	if d := MaxAbsDiff(Mul(q, r), a); d > 1e-10 {
		t.Fatalf("rank-deficient QR reconstruct diff %g", d)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := NewDense(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 5)
	a.Set(2, 2, 3)
	l, v := SymEig(a)
	want := []float64{5, 3, 1}
	for i, w := range want {
		if math.Abs(l[i]-w) > 1e-12 {
			t.Fatalf("eigenvalue %d = %g, want %g", i, l[i], w)
		}
	}
	checkOrthonormalCols(t, v, 1e-12, "SymEig V")
}

func TestSymEigReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 5, 12, 30} {
		b := randDense(rng, n, n)
		a := Add(b, b.T()) // symmetric
		l, v := SymEig(a)
		checkOrthonormalCols(t, v, 1e-9, "SymEig V")
		// V·diag(l)·Vᵀ == A
		rec := MulT(v.Clone().MulDiag(l), v)
		if d := MaxAbsDiff(rec, a); d > 1e-8*math.Max(1, a.FrobNorm()) {
			t.Fatalf("n=%d: eig reconstruct diff %g", n, d)
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if l[i] > l[i-1]+1e-12 {
				t.Fatalf("eigenvalues not descending at %d", i)
			}
		}
	}
}

func TestSymEigMatchesJacobi(t *testing.T) {
	// Two independent eigensolvers (tred2/tql2 vs cyclic Jacobi) must
	// agree on eigenvalues and produce equivalent reconstructions.
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 2, 3, 7, 16, 40} {
		b := randDense(rng, n, n)
		a := Add(b, b.T())
		l1, v1 := SymEig(a)
		l2, v2 := JacobiSymEig(a)
		checkOrthonormalCols(t, v1, 1e-9, "SymEig V")
		checkOrthonormalCols(t, v2, 1e-9, "JacobiSymEig V")
		scale := math.Max(1, math.Abs(l2[0]))
		for i := range l1 {
			if math.Abs(l1[i]-l2[i]) > 1e-8*scale {
				t.Fatalf("n=%d: λ%d tql2=%g jacobi=%g", n, i, l1[i], l2[i])
			}
		}
		r1 := MulT(v1.Clone().MulDiag(l1), v1)
		if d := MaxAbsDiff(r1, a); d > 1e-8*math.Max(1, a.FrobNorm()) {
			t.Fatalf("n=%d: tql2 reconstruct diff %g", n, d)
		}
	}
}

func TestSymEigTraceInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		b := randDense(rng, n, n)
		a := Add(b, b.T())
		var tr float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		l, _ := SymEig(a)
		var sum float64
		for _, x := range l {
			sum += x
		}
		return math.Abs(tr-sum) <= 1e-9*math.Max(1, math.Abs(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDReconstructBothOrientations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][2]int{{8, 5}, {5, 8}, {12, 12}, {1, 6}, {6, 1}} {
		a := randDense(rng, dims[0], dims[1])
		res := SVD(a)
		checkOrthonormalCols(t, res.U, 1e-8, "SVD U")
		checkOrthonormalCols(t, res.V, 1e-8, "SVD V")
		if d := MaxAbsDiff(res.Reconstruct(), a); d > 1e-7 {
			t.Fatalf("SVD %v reconstruct diff %g", dims, d)
		}
		for i := 1; i < len(res.S); i++ {
			if res.S[i] > res.S[i-1]+1e-12 {
				t.Fatalf("singular values not descending")
			}
		}
	}
}

func TestSVDKnownMatrix(t *testing.T) {
	// A = [[3,0],[0,2]] has singular values {3,2}.
	a := NewDense(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	res := SVD(a)
	if len(res.S) != 2 || math.Abs(res.S[0]-3) > 1e-12 || math.Abs(res.S[1]-2) > 1e-12 {
		t.Fatalf("got singular values %v, want [3 2]", res.S)
	}
}

func TestSVDTruncEckartYoung(t *testing.T) {
	// Truncating the exact SVD to rank d gives the optimal rank-d
	// approximation; its error must equal the tail energy.
	rng := rand.New(rand.NewSource(14))
	a := randDense(rng, 10, 7)
	full := SVD(a)
	for d := 1; d < 7; d++ {
		tr := full.Truncate(d)
		err := Sub(tr.Reconstruct(), a).FrobNorm()
		var tail float64
		for i := d; i < len(full.S); i++ {
			tail += full.S[i] * full.S[i]
		}
		want := math.Sqrt(tail)
		if math.Abs(err-want) > 1e-8 {
			t.Fatalf("d=%d: trunc error %g, tail energy %g", d, err, want)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-2 matrix in a 6×5 shape: SVD must report rank 2.
	rng := rand.New(rand.NewSource(15))
	u := randDense(rng, 6, 2)
	v := randDense(rng, 5, 2)
	a := MulT(u, v)
	res := SVD(a)
	if res.Rank() != 2 {
		t.Fatalf("rank = %d, want 2 (S=%v)", res.Rank(), res.S)
	}
	if d := MaxAbsDiff(res.Reconstruct(), a); d > 1e-8 {
		t.Fatalf("rank-deficient reconstruct diff %g", d)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := NewDense(4, 3)
	res := SVD(a)
	if res.Rank() != 0 {
		t.Fatalf("zero matrix rank = %d, want 0", res.Rank())
	}
}

func TestJacobiSVDAgreesWithGramSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, dims := range [][2]int{{9, 4}, {15, 8}, {5, 5}} {
		a := randDense(rng, dims[0], dims[1])
		g := SVD(a)
		j := JacobiSVD(a)
		if g.Rank() != j.Rank() {
			t.Fatalf("%v: rank mismatch gram=%d jacobi=%d", dims, g.Rank(), j.Rank())
		}
		for i := range g.S {
			if math.Abs(g.S[i]-j.S[i]) > 1e-8*math.Max(1, g.S[0]) {
				t.Fatalf("%v: σ%d gram=%g jacobi=%g", dims, i, g.S[i], j.S[i])
			}
		}
		if d := MaxAbsDiff(j.Reconstruct(), a); d > 1e-9 {
			t.Fatalf("%v: jacobi reconstruct diff %g", dims, d)
		}
	}
}

func TestSVDResultHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randDense(rng, 6, 4)
	res := SVD(a)
	us := res.US()
	if d := MaxAbsDiff(us, Mul(a, res.V)); d > 1e-9 {
		t.Fatalf("US != A·V: %g", d)
	}
	uss := res.USqrtS()
	for j, s := range res.S {
		for i := 0; i < 6; i++ {
			want := res.U.At(i, j) * math.Sqrt(s)
			if math.Abs(uss.At(i, j)-want) > 1e-12 {
				t.Fatalf("USqrtS mismatch at (%d,%d)", i, j)
			}
		}
	}
	// TailEnergy with d == rank must be ~0 for an exact decomposition.
	if te := res.TailEnergy(a.FrobNorm(), res.Rank()); te > 1e-6 {
		t.Fatalf("tail energy at full rank = %g, want ~0", te)
	}
	// TailEnergy at d=1 equals ‖A − (A)₁‖_F.
	want := Sub(res.Truncate(1).Reconstruct(), a).FrobNorm()
	if te := res.TailEnergy(a.FrobNorm(), 1); math.Abs(te-want) > 1e-8 {
		t.Fatalf("tail energy d=1: %g want %g", te, want)
	}
}

func TestOrthonormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := randDense(rng, 12, 5)
	orig := a.Clone()
	Orthonormalize(a)
	checkOrthonormalCols(t, a, 1e-10, "Orthonormalize")
	// Span preserved: projecting orig onto span(a) must reproduce orig.
	proj := Mul(a, TMul(a, orig))
	if d := MaxAbsDiff(proj, orig); d > 1e-9 {
		t.Fatalf("span not preserved: %g", d)
	}
}

func TestSVDPropertySingularValuesMatchGram(t *testing.T) {
	// Property: σ_i² are the eigenvalues of AᵀA.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(8)
		c := 2 + rng.Intn(8)
		a := randDense(rng, r, c)
		res := SVD(a)
		l, _ := SymEig(Gram(a))
		for i, s := range res.S {
			if math.Abs(s*s-l[i]) > 1e-7*math.Max(1, l[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQRThinHighlyRankDeficient(t *testing.T) {
	// Regression: a 200×40 matrix with only 4 non-zero rows used to send
	// QRThin into exponential noise amplification (NaN in Q). The
	// deflation floor must keep Q finite and orthonormal on its span.
	rng := rand.New(rand.NewSource(77))
	a := NewDense(200, 40)
	for _, r := range []int{3, 50, 120, 199} {
		for j := 0; j < 40; j++ {
			a.Set(r, j, rng.NormFloat64())
		}
	}
	q, r := QRThin(a)
	for _, v := range q.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("rank-deficient QR produced non-finite Q")
		}
	}
	if d := MaxAbsDiff(Mul(q, r), a); d > 1e-9 {
		t.Fatalf("rank-deficient QR reconstruct diff %g", d)
	}
	// Q columns orthonormal.
	if d := MaxAbsDiff(Gram(q), Identity(40)); d > 1e-9 {
		t.Fatalf("rank-deficient Q not orthonormal: %g", d)
	}
}

// TestSVDRefine: from a basis of the top-r subspace the refined copy is
// the truncated SVD, from any orthonormal basis its TailEnergy is its
// exact projection error with an orthonormal U, and its S·Vᵀ is Uᵀ·a.
func TestSVDRefine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randDense(rng, 40, 64)
	const r = 6
	want := SVDTrunc(a, r)
	got := SVDRefine(a, TMul(want.U, a), 1)
	for i := range want.S {
		if math.Abs(got.S[i]-want.S[i]) > 1e-10*want.S[0] {
			t.Fatalf("σ%d = %g from the exact basis, want %g", i, got.S[i], want.S[i])
		}
	}
	if d := MaxAbsDiff(MulT(got.U, got.U), MulT(want.U, want.U)); d > 1e-9 {
		t.Fatalf("refined subspace differs from the exact one by %g", d)
	}
	if d := MaxAbsDiff(want.SigmaVt(), TMul(want.U, a)); d > 1e-12*want.S[0] {
		t.Fatalf("the truncated SVD's S·Vᵀ differs from Uᵀ·a by %g", d)
	}
	u := Orthonormalize(randDense(rng, 40, r))
	got = SVDRefine(a, TMul(u, a), 2)
	checkOrthonormalCols(t, got.U, 1e-12, "refined U")
	if d := MaxAbsDiff(got.SigmaVt(), TMul(got.U, a)); d > 1e-12*got.S[0] {
		t.Fatalf("S·Vᵀ differs from Uᵀ·a by %g", d)
	}
	frob := a.FrobNorm()
	proj := TMul(got.U, a).FrobNorm()
	if e, tail := math.Sqrt(frob*frob-proj*proj), got.TailEnergy(frob, r); math.Abs(e-tail) > 1e-9*frob {
		t.Fatalf("TailEnergy %g, projection error %g", tail, e)
	}
	if tail, opt := got.TailEnergy(frob, r), want.TailEnergy(frob, r); tail < opt*(1-1e-12) {
		t.Fatalf("refined tail %g below the optimal %g", tail, opt)
	}
}

// TestSymEigvals: the eigenvalues alone equal SymEig's, descending.
func TestSymEigvals(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randDense(rng, 30, 50)
	g := GramT(a)
	want, _ := SymEig(g)
	got := SymEigvals(g.Clone(), 1)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*want[0] {
			t.Fatalf("λ%d = %g, want %g", i, got[i], want[i])
		}
	}
}
