package rsvd

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// lowRankCSR builds a sparse-ish matrix with an exact low-rank core plus
// small noise, the regime randomized SVD is designed for.
func lowRankCSR(rng *rand.Rand, rows, cols, rank int, noise float64) *sparse.CSR {
	u := GaussianDense(rng, rows, rank)
	v := GaussianDense(rng, cols, rank)
	b := sparse.NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			val := linalg.Dot(u.Row(i), v.Row(j))
			if noise > 0 {
				val += noise * rng.NormFloat64()
			}
			// Sparsify noisy matrices: keep large entries plus a random
			// sample. Noise-free matrices must stay exactly low-rank, so
			// keep everything.
			if noise == 0 || math.Abs(val) > 0.5 || rng.Float64() < 0.3 {
				b.Add(i, j, val)
			}
		}
	}
	return b.Build()
}

func relErr(approx *linalg.SVDResult, a *sparse.CSR, d int) (got, best float64) {
	dense := a.ToDense()
	rec := approx.Reconstruct()
	got = linalg.Sub(rec, dense).FrobNorm()
	exact := linalg.SVDTrunc(dense, d)
	best = linalg.Sub(exact.Reconstruct(), dense).FrobNorm()
	return got, best
}

func TestSparseRecoversExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := lowRankCSR(rng, 20, 60, 3, 0)
	res := mustSVD(Sparse(a, Options{Rank: 3, Seed: 7}))
	got, _ := relErr(res, a, 3)
	if got > 1e-6*a.FrobNorm() {
		t.Fatalf("exact rank-3 matrix: residual %g", got)
	}
}

func TestSparseNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := lowRankCSR(rng, 30, 80, 5, 0.05)
	res := mustSVD(Sparse(a, Options{Rank: 5, Seed: 3, PowerIters: 2}))
	got, best := relErr(res, a, 5)
	if got > 1.2*best+1e-12 {
		t.Fatalf("residual %g > 1.2× optimal %g", got, best)
	}
}

func TestSparseOrthonormalFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := lowRankCSR(rng, 15, 40, 4, 0.1)
	res := mustSVD(Sparse(a, Options{Rank: 4, Seed: 5}))
	gu := linalg.Gram(res.U)
	if d := linalg.MaxAbsDiff(gu, linalg.Identity(res.U.Cols)); d > 1e-8 {
		t.Fatalf("U not orthonormal: %g", d)
	}
	gv := linalg.Gram(res.V)
	if d := linalg.MaxAbsDiff(gv, linalg.Identity(res.V.Cols)); d > 1e-8 {
		t.Fatalf("V not orthonormal: %g", d)
	}
}

func TestSparseDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := lowRankCSR(rng, 12, 30, 3, 0.1)
	r1 := mustSVD(Sparse(a, Options{Rank: 3, Seed: 42}))
	r2 := mustSVD(Sparse(a, Options{Rank: 3, Seed: 42}))
	if d := linalg.MaxAbsDiff(r1.U, r2.U); d != 0 {
		t.Fatalf("same seed, different U: %g", d)
	}
}

func TestSparseRankClamp(t *testing.T) {
	// Rank larger than matrix dimensions must not panic and must return
	// at most min(rows, cols) triplets.
	rng := rand.New(rand.NewSource(5))
	a := lowRankCSR(rng, 5, 9, 2, 0.1)
	res := mustSVD(Sparse(a, Options{Rank: 20, Seed: 1}))
	if res.Rank() > 5 {
		t.Fatalf("rank %d > min dimension 5", res.Rank())
	}
}

func TestSparseEmptyMatrix(t *testing.T) {
	a := sparse.NewBuilder(4, 10).Build()
	res := mustSVD(Sparse(a, Options{Rank: 3, Seed: 1}))
	if res.Rank() != 0 {
		t.Fatalf("empty matrix rank %d", res.Rank())
	}
}

func TestFRPCANearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := lowRankCSR(rng, 30, 100, 6, 0.05)
	res := mustSVD(FRPCA(a, Options{Rank: 6, Seed: 13}))
	got, best := relErr(res, a, 6)
	if got > 1.1*best+1e-12 {
		t.Fatalf("FRPCA residual %g > 1.1× optimal %g", got, best)
	}
}

// givensOrtho returns an n×n orthogonal matrix built from two rounds of
// Givens rotations over random disjoint index pairs. It has at most four
// non-zeros per row and per column.
func givensOrtho(rng *rand.Rand, n int) *linalg.Dense {
	q := linalg.Identity(n)
	for round := 0; round < 2; round++ {
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			a, b := perm[i], perm[i+1]
			theta := 2 * math.Pi * rng.Float64()
			c, s := math.Cos(theta), math.Sin(theta)
			for r := 0; r < n; r++ {
				row := q.Row(r)
				row[a], row[b] = c*row[a]-s*row[b], s*row[a]+c*row[b]
			}
		}
	}
	return q
}

// planted returns U·diag(s)·Vᵀ (rows×cols, len(s) ≤ min(rows, cols)) with
// U and V from givensOrtho: its singular values are s up to rounding, and
// it keeps at most 16 non-zeros a row, a level-1 block's sparsity.
func planted(rng *rand.Rand, rows, cols int, s []float64) *linalg.Dense {
	u, v := givensOrtho(rng, rows), givensOrtho(rng, cols)
	a := linalg.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var x float64
			for k, sk := range s {
				x += u.At(i, k) * sk * v.At(j, k)
			}
			a.Set(i, j, x)
		}
	}
	return a
}

// toCSR keeps a dense matrix's non-zero entries.
func toCSR(a *linalg.Dense) *sparse.CSR {
	b := sparse.NewBuilder(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j, x := range a.Row(i) {
			if x != 0 {
				b.Add(i, j, x)
			}
		}
	}
	return b.Build()
}

// geometric returns n values falling geometrically from top to 1.
func geometric(n int, top float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Pow(top, float64(n-1-i)/float64(n-1))
	}
	return s
}

// TestSparseHostileSpectra drives the power iteration's unprotected first
// step, which cubes σ_1/σ_p before the QR, through level-1-sized blocks
// with planted spectra: singular values spanning up to 1e12, duplicated and
// all-zero columns, a single non-zero row, and blocks narrower or shorter
// than the Rank + 8 sketch. Every result must be finite, with orthonormal
// U and a descending non-negative S. Its tail may exceed the exact rank-d
// tail (a lost direction only makes Eqn. 2 fire sooner) but not undercut
// it. Workers 1 and 2 must agree bit for bit: the tree hands a block
// whatever kernel budget the pass's other dirty blocks leave, and its
// cached factor must not depend on that.
func TestSparseHostileSpectra(t *testing.T) {
	const rank = 16
	rng := rand.New(rand.NewSource(34))
	// tailOf is the exact rank-d tail √(Σ_{i≥d} s_i²) of a descending s.
	tailOf := func(s []float64) float64 {
		var sq float64
		for _, x := range s[min(rank, len(s)):] {
			sq += x * x
		}
		return math.Sqrt(sq)
	}
	type block struct {
		name string
		a    *linalg.Dense
		tail float64
	}
	var blocks []block
	add := func(name string, rows, cols int, s []float64) {
		blocks = append(blocks, block{name, planted(rng, rows, cols, s), tailOf(s)})
	}
	add("span 1e3", 128, 140, geometric(128, 1e3))
	add("span 1e6", 128, 140, geometric(128, 1e6))
	add("span 1e12", 128, 140, geometric(128, 1e12))
	head := append(geometric(rank, 1e12), geometric(128-rank, 1)...)
	add("top 16 span 1e12, flat tail", 128, 140, head)
	// A block no wider than the sketch skips it for linalg's exact
	// Gram-route SVD (linalg.SVD). That route recovers U by dividing by σ,
	// so UᵀU drifts from I with (σ_1/σ_d)²: 4e-10 at a 1e5 span, 2e-8 at 1e6.
	// The error scales with σ_i in the cached U·Σ, so the tree loses
	// nothing; a 1e3 span keeps this block inside 1e-10, and the wide
	// blocks carry the 1e12 spans through the sketch.
	add("narrower than the sketch", 128, rank+4, geometric(rank+4, 1e3))
	add("one wider than the sketch", 128, rank+9, geometric(rank+9, 1e12))
	add("fewer rows than the sketch", 10, 140, geometric(10, 1e12))
	// Every column twice, then 12 empty columns: the singular values are
	// √2 times the base block's.
	s := geometric(64, 1e12)
	base := planted(rng, 128, 64, s)
	for i := range s {
		s[i] *= math.Sqrt2
	}
	blocks = append(blocks, block{"duplicated and zero columns",
		linalg.HCat(base, base, linalg.NewDense(128, 12)), tailOf(s)})
	// One non-zero row spanning 1e12: rank one, exact tail zero.
	row := linalg.NewDense(128, 140)
	for j, x := range geometric(140, 1e12) {
		row.Set(7, j, x*float64(1-2*rng.Intn(2)))
	}
	blocks = append(blocks, block{"single non-zero row", row, 0})

	for _, b := range blocks {
		a := toCSR(b.a)
		frob := a.FrobNorm()
		for _, q := range []int{1, 2} {
			name := fmt.Sprintf("%s, %d power iterations", b.name, q)
			res := mustSVD(Sparse(a, Options{Rank: rank, PowerIters: q, Seed: 5, Workers: 1}))
			for _, x := range slices.Concat(res.U.Data, res.S, res.V.Data) {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s: non-finite value %g", name, x)
				}
			}
			if d := linalg.MaxAbsDiff(linalg.Gram(res.U), linalg.Identity(res.U.Cols)); d > 1e-10 {
				t.Errorf("%s: UᵀU departs from I by %g", name, d)
			}
			for i, x := range res.S {
				if x < 0 || (i > 0 && x > res.S[i-1]) {
					t.Errorf("%s: S not descending and non-negative at %d: %v", name, i, res.S)
					break
				}
			}
			if got := res.TailEnergy(frob, rank); got < b.tail-1e-9*frob {
				t.Errorf("%s: tail %g undercuts the exact tail %g (‖B‖ %g)", name, got, b.tail, frob)
			}
			par := mustSVD(Sparse(a, Options{Rank: rank, PowerIters: q, Seed: 5, Workers: 2}))
			if !slices.Equal(res.U.Data, par.U.Data) || !slices.Equal(res.S, par.S) || !slices.Equal(res.V.Data, par.V.Data) {
				t.Errorf("%s: Workers 1 and 2 differ", name)
			}
		}
	}
}

func TestPowerItersImproveAccuracy(t *testing.T) {
	// With a slowly decaying spectrum, more power iterations must not make
	// the approximation worse (allowing tiny noise slack).
	rng := rand.New(rand.NewSource(10))
	a := lowRankCSR(rng, 30, 120, 10, 0.3)
	r0 := mustSVD(Sparse(a, Options{Rank: 4, Seed: 21, PowerIters: 0}))
	r3 := mustSVD(Sparse(a, Options{Rank: 4, Seed: 21, PowerIters: 3}))
	e0, _ := relErr(r0, a, 4)
	e3, _ := relErr(r3, a, 4)
	if e3 > e0*1.01 {
		t.Fatalf("power iterations hurt: e0=%g e3=%g", e0, e3)
	}
}

// TestSparseFromWarmStart: from the basis of a nearby matrix's factor one
// step lands within 1 % of the optimal error with an orthonormal U and a
// tail that is its exact projection error; the result is a function of
// the seed; and the routes Sparse factors exactly ignore the start.
func TestSparseFromWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := lowRankCSR(rng, 40, 120, 6, 0.05)
	prev := mustSVD(Sparse(a, Options{Rank: 6, Seed: 1, PowerIters: 1}))
	b := sparse.NewBuilder(a.Rows, a.Cols) // a, with a tenth of its columns redrawn
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			v := a.Val[p]
			if a.ColIdx[p]%10 == 0 {
				v = 3 * rng.NormFloat64()
			}
			b.Add(i, int(a.ColIdx[p]), v)
		}
	}
	a = b.Build()
	res := mustSVD(SparseFrom(a, prev.U, Options{Rank: 6, Seed: 2}))
	if got, best := relErr(res, a, 6); got > 1.01*best {
		t.Fatalf("warm residual %g > 1.01× optimal %g", got, best)
	}
	if d := linalg.MaxAbsDiff(linalg.Gram(res.U), linalg.Identity(res.U.Cols)); d > 1e-10 {
		t.Fatalf("warm U not orthonormal: %g", d)
	}
	frob := a.FrobNorm()
	proj := a.TMulDense(res.U).FrobNorm()
	if e, tail := math.Sqrt(frob*frob-proj*proj), res.TailEnergy(frob, 6); math.Abs(e-tail) > 1e-9*frob {
		t.Fatalf("TailEnergy %g, projection error %g", tail, e)
	}
	again := mustSVD(SparseFrom(a, prev.U, Options{Rank: 6, Seed: 2}))
	if !slices.Equal(res.U.Data, again.U.Data) || !slices.Equal(res.S, again.S) {
		t.Fatal("same start and seed, different factor")
	}
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		u0   *linalg.Dense
	}{
		{"no start", a, nil},
		{"rank-0 start", a, linalg.NewDense(a.Rows, 0)},
		{"narrow", lowRankCSR(rng, 40, 14, 3, 0.05), prev.U},
		{"short", lowRankCSR(rng, 14, 120, 3, 0.05), linalg.Identity(14).SliceCols(0, 6)},
	} {
		cold := mustSVD(Sparse(tc.a, Options{Rank: 6, Seed: 3, PowerIters: 1}))
		warm := mustSVD(SparseFrom(tc.a, tc.u0, Options{Rank: 6, Seed: 3, PowerIters: 1}))
		if !slices.Equal(cold.U.Data, warm.U.Data) || !slices.Equal(cold.S, warm.S) {
			t.Errorf("%s: SparseFrom left Sparse's route", tc.name)
		}
	}
	if _, err := SparseFrom(a, linalg.NewDense(a.Rows-1, 6), Options{Rank: 6}); err == nil {
		t.Fatal("a start basis of the wrong height was accepted")
	}
}
