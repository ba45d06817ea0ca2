package linalg

import (
	"math"
	"sync/atomic"

	"github.com/tree-svd/treesvd/internal/obs"
	"github.com/tree-svd/treesvd/internal/par"
)

// The top-d symmetric eigensolver. A tree merge keeps d of the k·d
// directions of its Gram matrix, so after the shared Householder
// reduction (tred2Reduce) gramEig (svd.go) runs the QL iteration for
// eigenvalues only, finds the kept eigenvectors of the tridiagonal by
// inverse iteration (tridiagVectors) and maps just those through the
// stored reflectors (backTransform): O(n²·d) after the reduction, where
// the full solver's accumulation and rotation replay are O(n³).

// partialEigRatio is the route-selection constant: the top-d route runs
// when d·partialEigRatio ≤ n. Measured crossover (whole SVDTruncW of a
// Gaussian n×n, 1 worker, top-d time / full time): n = 128: 0.44 at
// d = 16, 0.49 at 32, 0.76 at 64, 1.03 at 96, 1.26 at 128; n = 64: 0.83
// at d = 32, 1.11 at 48; n = 256: 0.63 at d = 128, 0.95 at 192 — the
// routes cross near d = 0.75·n (the Gram–Schmidt pass is O(n·d²)), and
// the cut sits at n/2, where the top-d route still wins by a quarter.
const partialEigRatio = 2

// ForceFullEig is a test-only hook: while set, every Gram-route SVD takes
// the full solver, so a test can run one computation down both routes.
var ForceFullEig atomic.Bool

// eigFallbacks counts top-d solves that failed the residual gate and were
// redone by the full solver. The tests read it to know which route ran.
var eigFallbacks obs.Counter

// eigResidualGate is c in the acceptance test ‖T·z − λ·z‖₂ ≤ c·√n·ε·‖T‖₁
// of an inverse-iteration vector. λ is the QL iteration's, so the
// residual carries its error too: c ≈ 2 is the most the property tests
// see (a rotated multiple eigenvalue, n = 32…512; random spectra stay
// near 1), an unconverged vector sits thirteen orders above. A variable
// only so a test can force the fallback.
var eigResidualGate = 16.0

const (
	eps52      = 2.220446049250313e-16 // 2^-52
	invIterMin = 3                     // dstein: one step to converge, two to polish
	invIterMax = 6
)

// tridiagVectors computes unit eigenvectors of the symmetric tridiagonal
// T (diagonal d, subdiagonal e[1:]) for the eigenvalues lam, descending,
// into the rows of vt, by inverse iteration as LAPACK's dstein does it:
// T − λ·I is factored with partial pivoting, a deterministic
// pseudo-random start vector is solved against it at least invIterMin
// times, coincident eigenvalues get shifts 10·ε·|λ| apart, and every
// iterate is orthogonalized against the vectors already found — all of
// them, not dstein's cluster only: at most n/partialEigRatio exist, so
// it is O(n·d²) and leaves no 10³·ε orthogonality loss between
// neighbouring clusters. Serial: each vector depends on the earlier
// ones. It reports false when a vector still fails the residual gate
// after invIterMax steps. lu is 5·n of scratch.
func tridiagVectors(vt *Dense, d, e, lam, lu []float64) bool {
	n := len(d)
	var tnorm float64
	for i := range d {
		s := math.Abs(d[i]) + math.Abs(e[i])
		if i+1 < n {
			s += math.Abs(e[i+1])
		}
		tnorm = max(tnorm, s)
	}
	tiny := eps52 * tnorm
	gate := eigResidualGate * math.Sqrt(float64(n)) * tiny
	piv, sup1, sup2, mult, swapped := lu[:n], lu[n:2*n], lu[2*n:3*n], lu[3*n:4*n], lu[4*n:5*n]
	off := func(i int) float64 { // T[i-1][i], zero past the corner
		if i < n {
			return e[i]
		}
		return 0
	}
	var shift float64
	for j := 0; j < vt.Rows; j++ {
		if sep := 10 * eps52 * math.Abs(lam[j]); j == 0 || shift-lam[j] >= sep {
			shift = lam[j]
		} else {
			shift -= sep
		}
		// Row-wise elimination of T − shift·I: the upper factor has two
		// superdiagonals, the second filled only where rows swapped.
		piv[0], sup1[0] = d[0]-shift, off(1)
		for i := 0; i+1 < n; i++ {
			sub, diag, next := e[i+1], d[i+1]-shift, off(i+2)
			if math.Abs(piv[i]) >= math.Abs(sub) {
				m := 0.0
				if sub != 0 {
					m = sub / piv[i]
				}
				mult[i], swapped[i], sup2[i] = m, 0, 0
				piv[i+1], sup1[i+1] = diag-m*sup1[i], next
			} else {
				m := piv[i] / sub
				mult[i], swapped[i] = m, 1
				piv[i+1], sup1[i+1] = sup1[i]-m*diag, -m*next
				piv[i], sup1[i], sup2[i] = sub, diag, next
			}
		}
		x := vt.Row(j)
		seed := uint64(j)*0x9E3779B97F4A7C15 + 1
		for i := range x {
			seed = seed*6364136223846793005 + 1442695040888963407
			x[i] = float64(seed>>11)/(1<<52) - 1
		}
		for it := 1; ; it++ {
			for i := 0; i+1 < n; i++ {
				if swapped[i] != 0 {
					x[i], x[i+1] = x[i+1], x[i]-mult[i]*x[i+1]
				} else {
					x[i+1] -= mult[i] * x[i]
				}
			}
			// A pivot below ε·‖T‖ is the near-singularity the iteration
			// feeds on; flooring it bounds the growth of one step.
			var x1, x2 float64
			for i := n - 1; i >= 0; i-- {
				p := piv[i]
				if math.Abs(p) < tiny {
					p = math.Copysign(tiny, p)
				}
				xi := (x[i] - sup1[i]*x1 - sup2[i]*x2) / p
				x[i], x1, x2 = xi, xi, x1
			}
			for k := 0; k < j; k++ {
				Axpy(x, -Dot(x, vt.Row(k)), vt.Row(k))
			}
			inv := 1 / Norm2(x)
			for i := range x {
				x[i] *= inv
			}
			// Against the unshifted eigenvalue; a NaN (overflowed iterate,
			// zero norm) fails the comparison.
			if it >= invIterMin && tridiagResidual(d, e, x, lam[j]) <= gate {
				break
			}
			if it == invIterMax {
				return false
			}
		}
	}
	return true
}

// tridiagResidual returns ‖T·x − λ·x‖₂ for the tridiagonal (d, e).
func tridiagResidual(d, e, x []float64, lambda float64) float64 {
	var res float64
	for i := range x {
		r := (d[i] - lambda) * x[i]
		if i > 0 {
			r += e[i] * x[i-1]
		}
		if i+1 < len(x) {
			r += e[i+1] * x[i+1]
		}
		res += r * r
	}
	return math.Sqrt(res)
}

// backTransform maps eigenvectors of the tridiagonal (rows of vt) to
// eigenvectors of the reduced matrix: z ← Q·z = H_{n-1}···H_1·z, with the
// reflectors as tred2Reduce left them in zt and h. Rows are independent,
// so they fan out over the worker budget with a bit-identical result.
func backTransform(vt, zt *Dense, h []float64, workers int) {
	n := zt.Rows
	par.ForChunks(vt.Rows, kernelWorkers(workers, vt.Rows, vt.Rows*n*n), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			z := vt.Row(j)
			for i := 1; i < n; i++ {
				if h[i] != 0 {
					u := zt.Row(i)[:i]
					Axpy(z[:i], -Dot(u, z[:i])/h[i], u)
				}
			}
		}
	})
}
