package hsvd

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

func lowRank(rng *rand.Rand, rows, cols, rank int, noise float64) *linalg.Dense {
	u := linalg.NewDense(rows, rank)
	v := linalg.NewDense(cols, rank)
	for i := range u.Data {
		u.Data[i] = rng.NormFloat64()
	}
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	m := linalg.MulTW(u, v, 1)
	for i := range m.Data {
		m.Data[i] += noise * rng.NormFloat64()
	}
	return m
}

func toCSR(m *linalg.Dense) *sparse.CSR {
	b := sparse.NewBuilder(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			b.Add(i, j, m.At(i, j))
		}
	}
	return b.Build()
}

func TestExactLowRankRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := lowRank(rng, 12, 64, 3, 0)
	cfg := Config{Rank: 3, Blocks: 8, Branch: 2}
	res := Factorize(toCSR(m), cfg)
	// Singular values must match the exact SVD (HSVD is lossless when the
	// block rank bounds the matrix rank).
	exact := linalg.SVDTruncW(m, 3, 1)
	for i := range exact.S {
		if math.Abs(res.S[i]-exact.S[i]) > 1e-6*exact.S[0] {
			t.Fatalf("σ%d = %g, want %g", i, res.S[i], exact.S[i])
		}
	}
}

func TestApproximationWithinTheorem(t *testing.T) {
	// Theorem 3.2 with ε=0 (exact level-1 SVD): the reconstruction error
	// is at most ((2)(1+√2)^{q-1} − 1)·‖M−(M)_d‖_F. Check the projection
	// error of the returned left subspace against that bound.
	rng := rand.New(rand.NewSource(2))
	m := lowRank(rng, 15, 60, 8, 0.3)
	d := 4
	cfg := Config{Rank: d, Blocks: 4, Branch: 2} // q = 3 levels
	res := Factorize(toCSR(m), cfg)
	// Residual after projecting M on the returned left singular space.
	proj := linalg.MulW(res.U, linalg.TMulW(res.U, m, 1), 1)
	got := linalg.Sub(m, proj).FrobNorm()
	best := linalg.SVDW(m, 1).TailEnergy(m.FrobNorm(), d)
	q := 3.0
	bound := (2*math.Pow(1+math.Sqrt2, q-1) - 1) * best
	if got > bound {
		t.Fatalf("projection error %g exceeds Theorem 3.2 bound %g", got, bound)
	}
	// And it should in practice be close to optimal.
	if got > 1.5*best {
		t.Fatalf("projection error %g vs optimal %g — worse than expected in practice", got, best)
	}
}

func TestSingleBlockDegeneratesToSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := lowRank(rng, 8, 20, 5, 0.05)
	res := Factorize(toCSR(m), Config{Rank: 4, Blocks: 1, Branch: 2})
	exact := linalg.SVDTruncW(m, 4, 1)
	for i := range exact.S {
		if math.Abs(res.S[i]-exact.S[i]) > 1e-8*exact.S[0] {
			t.Fatalf("σ%d = %g, want %g", i, res.S[i], exact.S[i])
		}
	}
}

func TestBlocksExceedingColsClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := lowRank(rng, 6, 10, 2, 0.05)
	// 64 blocks over 10 columns: must clamp, not panic.
	res := Factorize(toCSR(m), Config{Rank: 2, Blocks: 64, Branch: 8})
	if res.Rank() == 0 {
		t.Fatal("clamped factorization returned nothing")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{{Rank: 0, Blocks: 4, Branch: 2}, {Rank: 2, Blocks: 0, Branch: 2}, {Rank: 2, Blocks: 4, Branch: 1}} {
		if bad.Validate() == nil {
			t.Fatalf("accepted bad config %+v", bad)
		}
	}
}
