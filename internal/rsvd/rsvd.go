// Package rsvd implements randomized truncated SVD for sparse matrices:
// the Halko–Martinsson–Tropp randomized subspace iteration used at level 1
// of Tree-SVD (8 oversamples, one power iteration run as their Algorithm
// 4.3: Y = A·Aᵀ·A·Ω, then one QR), and an FRPCA-style baseline (randomized
// PCA with four power iterations, the Exp. 2 competitor).
package rsvd

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// oversample is the number of sketch columns drawn beyond Rank.
const oversample = 8

// Options configures the randomized SVD.
type Options struct {
	// Rank is the number of singular triplets to return (d in the paper).
	Rank int
	// PowerIters is the number of subspace (power) iterations. Each
	// iteration sharpens the spectral gap at the cost of two extra sparse
	// products; the first adds no QR, every later one adds two. Default 0.
	// Tree-SVD's level-1 blocks run 1, FRPCA raises 0 to 4.
	PowerIters int
	// Seed drives the Gaussian draw; runs are deterministic for a fixed
	// seed.
	Seed int64
	// Workers is the kernel worker budget for the sparse products, QR and
	// small SVD (0 or 1 = sequential). It does not affect the factorization
	// result except through the documented O(ε) rounding of parallel
	// sparse transpose-products.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.PowerIters < 0 {
		o.PowerIters = 0
	}
	return o
}

func (o Options) sketchCols(n int) int {
	p := o.Rank + oversample
	if p > n {
		p = n
	}
	return p
}

// GaussianDense returns an r×c matrix of iid N(0,1) entries drawn from rng.
func GaussianDense(rng *rand.Rand, r, c int) *linalg.Dense {
	m := linalg.NewDense(r, c)
	fillGaussian(rng, m)
	return m
}

func fillGaussian(rng *rand.Rand, m *linalg.Dense) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
}

// Sparse computes a randomized truncated SVD of a sparse matrix A (rows×n).
// The scheme is Halko-style subspace iteration on the row space:
//
//	Y = A·Ω (n×p Gaussian), q power iterations Y ← A·(Aᵀ·Y) with
//	re-orthonormalization from the second one on, Q = qr(Y), W = Qᵀ·A,
//	exact thin SVD of the small W, then U = Q·U_w.
//
// For Tree-SVD's level-1 blocks the row count is |S| (small) and n is the
// block width, so every dense intermediate is tiny; the sparse products are
// O(nnz·p) each, matching the Theorem 3.3 accounting.
//
// Every intermediate that dies inside the routine — the Gaussian sketch,
// the subspace ping-pong buffers, the projected small matrix — cycles
// through the linalg scratch pool, so the thousands of block rebuilds of a
// dynamic stream reuse a handful of buffers instead of reallocating them.
func Sparse(a *sparse.CSR, opts Options) (*linalg.SVDResult, error) {
	opts = opts.withDefaults()
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("rsvd: non-positive rank %d", opts.Rank)
	}
	defer observeSparse(time.Now())
	rng := rand.New(rand.NewSource(opts.Seed))
	kw := opts.Workers
	p := opts.sketchCols(min(a.Rows, a.Cols))
	if p == 0 || a.NNZ() == 0 {
		return &linalg.SVDResult{U: linalg.NewDense(a.Rows, 0), V: linalg.NewDense(a.Cols, 0)}, nil
	}
	if a.Cols <= opts.Rank+oversample {
		// The sketch would be as wide as the matrix: a randomized range
		// finder saves nothing, so take the exact thin SVD of the block
		// directly (Gram side is Cols×Cols — tiny). Cheaper and exact for
		// the narrow blocks produced by large b.
		return linalg.SVDTruncW(a.ToDense(), opts.Rank, kw), nil
	}
	omega := linalg.GetDense(a.Cols, p)
	fillGaussian(rng, omega)
	y := a.MulDenseW(omega, kw) // rows×p
	linalg.PutDense(omega)
	for it := 0; it < opts.PowerIters; it++ {
		// The first A·Aᵀ product runs on the raw sketch (HMT Algorithm
		// 4.3) and costs no QR. It cubes σ_i/σ_1 before the final QR, whose
		// 1e-13 deflation floor then drops only directions below
		// ~5e-5·σ_1. Later iterations re-orthonormalize (Algorithm 4.4), so
		// higher powers never push a kept direction under that floor.
		if it > 0 {
			linalg.OrthonormalizeW(y, kw)
		}
		z := a.TMulDenseW(y, kw) // n×p
		if it > 0 {
			linalg.OrthonormalizeW(z, kw)
		}
		linalg.PutDense(y)
		y = a.MulDenseW(z, kw)
		linalg.PutDense(z)
	}
	q, _ := linalg.QRThinW(y, kw)
	linalg.PutDense(y)
	wt := a.TMulDenseW(q, kw) // n×p
	w := wt.T()               // (p×n): rows are Qᵀ·A
	linalg.PutDense(wt)
	small := linalg.SVDW(w, kw)
	linalg.PutDense(w)
	u := linalg.MulW(q, small.U, kw)
	linalg.PutDense(q)
	linalg.PutDense(small.U)
	res := &linalg.SVDResult{U: u, S: small.S, V: small.V}
	return res.Truncate(opts.Rank), nil
}

// FRPCA approximates the truncated SVD of a sparse matrix in the style of
// Feng et al.'s fast randomized PCA for sparse data: randomized subspace
// iteration with an elevated default power count. It is the whole-matrix
// SVD competitor of Exp. 2 — identical output contract to Sparse, but it
// always factors the full matrix in one shot (no hierarchy), which is what
// Tree-SVD's level structure avoids re-doing on updates.
func FRPCA(a *sparse.CSR, opts Options) (*linalg.SVDResult, error) {
	opts = opts.withDefaults()
	if opts.PowerIters == 0 {
		opts.PowerIters = 4
	}
	frpcaCalls.Inc() // the delegated Sparse call records the timing
	return Sparse(a, opts)
}
