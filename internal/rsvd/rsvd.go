// Package rsvd implements randomized truncated SVD for sparse matrices:
// the Halko–Martinsson–Tropp randomized subspace iteration used at level 1
// of Tree-SVD (8 oversamples, one power iteration run as their Algorithm
// 4.3: Y = A·Aᵀ·A·Ω, then one QR), its warm start from a cached basis
// (SparseFrom, one subspace step), and an FRPCA-style baseline
// (randomized PCA with four power iterations, the Exp. 2 competitor).
package rsvd

import (
	"fmt"
	"math/rand"

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
	// small SVD (0 or 1 = sequential). It does not change a bit of the
	// factorization.
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

// warmExtra is how many Gaussian columns SparseFrom adds beyond Rank to
// the cached basis it starts from, so that a direction the block gained
// outside that basis is still found. It is a measured constant. Over the
// update re-factors of the system benchmark's seed-1 churn input (600
// batches of 48 events, |S| = 128, d = 16, two workers), 0, 2, 3, 4, 6
// and 8 extra columns took 648, 624, 618, 614, 609 and 607 re-factors at
// a mean tail/‖B_j‖ of 0.652, 0.645, 0.644, 0.643, 0.642 and 0.641 and
// 249, 318, 339, 377, 411 and 500 µs a block; Sparse's cold sketch took
// 661 at 0.655 and 551 µs, and the exact tail is 0.636. With none the
// warm tail is above the cold route's on the same blocks (EXPERIMENTS
// "Ablations").
const warmExtra = 4

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
	defer sparseCalls.Inc()
	if res := direct(a, opts); res != nil {
		return res, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	kw := opts.Workers
	omega := linalg.GetDense(a.Cols, opts.sketchCols(min(a.Rows, a.Cols)))
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
	return rayleighRitz(a, y, opts.Rank, kw), nil
}

// SparseFrom is Sparse warm-started from u0, an orthonormal basis of
// a.Rows rows the caller already holds for a nearby matrix (a level-1
// block's cached factor): one subspace step (HMT §4.5) from
// X₀ = [u0, G], where G holds Gaussian columns drawn from opts.Seed that
// fill X₀ to Rank + warmExtra columns — Z = Aᵀ·X₀, Y = A·Z,
// Q = qr(Y) — then the Rayleigh–Ritz step Sparse ends with. Its three
// sparse products are narrower than Sparse's four, and its draw is
// rows×(Rank + warmExtra − r) instead of n×p. PowerIters is not read.
// Sparse's route is taken for a nil or rank-0 u0, and for a matrix Sparse
// factors exactly: one at most Rank + oversample columns wide, or rows
// tall, where its sketch spans every row. Either way the factor's
// projection error is exact given its singular values (TailEnergy).
func SparseFrom(a *sparse.CSR, u0 *linalg.Dense, opts Options) (*linalg.SVDResult, error) {
	if u0 == nil || u0.Cols == 0 || a.Rows <= opts.Rank+oversample {
		return Sparse(a, opts)
	}
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("rsvd: non-positive rank %d", opts.Rank)
	}
	if u0.Rows != a.Rows || u0.Cols > a.Rows {
		return nil, fmt.Errorf("rsvd: a %d×%d start basis for a matrix of %d rows", u0.Rows, u0.Cols, a.Rows)
	}
	defer sparseCalls.Inc()
	if res := direct(a, opts); res != nil {
		return res, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	kw := opts.Workers
	r := u0.Cols
	x0 := linalg.GetDense(a.Rows, max(opts.Rank+warmExtra, r)) // rows > Rank + oversample
	for i := 0; i < a.Rows; i++ {
		row := x0.Row(i)
		copy(row, u0.Row(i))
		for k := r; k < len(row); k++ {
			row[k] = rng.NormFloat64()
		}
	}
	z := a.TMulDenseW(x0, kw) // n×p
	linalg.PutDense(x0)
	y := a.MulDenseW(z, kw) // rows×p
	linalg.PutDense(z)
	return rayleighRitz(a, y, opts.Rank, kw), nil
}

// direct returns the factorization of a matrix no sketch can save work
// on, or nil: an empty one, and one at most Rank + oversample columns
// wide, where a sketch would be as wide as the matrix and the exact thin
// SVD (its Gram side is Cols×Cols — tiny) is cheaper and exact. That is
// every block of a large b.
func direct(a *sparse.CSR, opts Options) *linalg.SVDResult {
	if min(a.Rows, a.Cols) == 0 || a.NNZ() == 0 {
		return &linalg.SVDResult{U: linalg.NewDense(a.Rows, 0), V: linalg.NewDense(a.Cols, 0)}
	}
	if a.Cols <= opts.Rank+oversample {
		return linalg.SVDTruncW(a.ToDense(), opts.Rank, opts.Workers)
	}
	return nil
}

// rayleighRitz ends both randomized routes: Q = qr(y) for the pooled
// range sample y (consumed), then the exact thin SVD of the small
// W = Qᵀ·A, U = Q·U_w, cut at rank. U spans Q up to the numerically zero
// directions the small SVD drops, so ‖A‖²_F − Σ S² is the factor's exact
// projection error (TailEnergy).
func rayleighRitz(a *sparse.CSR, y *linalg.Dense, rank, kw int) *linalg.SVDResult {
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
	return res.Truncate(rank)
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
	return Sparse(a, opts)
}
