package rsvd

import (
	"math"
	"math/rand"
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
