package linalg

// The cyclic and one-sided Jacobi solvers: slower than the Gram route
// and the Householder/QL eigensolver the library runs, but algorithmically
// independent of both, so tests cross-validate against them.

import (
	"fmt"
	"math"
)

// symEigTol is the relative off-diagonal tolerance at which the cyclic
// Jacobi iteration is considered converged.
const symEigTol = 1e-12

// symEigMaxSweeps bounds the number of Jacobi sweeps. Cyclic Jacobi
// converges quadratically; well-conditioned inputs need < 10 sweeps.
const symEigMaxSweeps = 60

// JacobiSymEig is the cyclic Jacobi eigensolver — slower than SymEig but
// algorithmically independent; tests cross-validate the two.
func JacobiSymEig(a *Dense) (lambda []float64, v *Dense) {
	if a.Cols != a.Rows {
		panic(fmt.Sprintf("linalg: JacobiSymEig requires a square matrix, got %d×%d", a.Rows, a.Cols))
	}
	n := a.Rows
	w := a.Clone()
	v = identity(n)
	if n == 0 {
		return nil, v
	}
	total := w.FrobNorm()
	if total == 0 {
		return make([]float64, n), v
	}
	for sweep := 0; sweep < symEigMaxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += 2 * w.At(i, j) * w.At(i, j)
			}
		}
		if math.Sqrt(off) <= symEigTol*total {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= symEigTol*total/float64(n*n) {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	lambda = make([]float64, n)
	for i := 0; i < n; i++ {
		lambda[i] = w.At(i, i)
	}
	sortEig(lambda, v)
	return lambda, v
}

// JacobiSVD computes the thin SVD of an m×n matrix (m ≥ n required;
// transpose first otherwise) using the one-sided Jacobi method: rotate
// column pairs of A until they are mutually orthogonal, accumulate the
// rotations in V, then read σ and U off the column norms. Slower than the
// Gram route but does not square the condition number.
func JacobiSVD(a *Dense) *SVDResult {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("linalg: JacobiSVD requires rows ≥ cols, got %d×%d", m, n))
	}
	w := a.Clone()
	v := identity(n)
	const tol = 1e-14
	for sweep := 0; sweep < symEigMaxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					xp := w.At(i, p)
					xq := w.At(i, q)
					app += xp * xp
					aqq += xq * xq
					apq += xp * xq
				}
				if math.Abs(apq) <= tol*math.Sqrt(app*aqq) {
					continue
				}
				rotated = true
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for i := 0; i < m; i++ {
					xp := w.At(i, p)
					xq := w.At(i, q)
					w.Set(i, p, c*xp-s*xq)
					w.Set(i, q, s*xp+c*xq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if !rotated {
			break
		}
	}
	// Singular values are column norms of the rotated matrix.
	sig := make([]float64, n)
	for j := 0; j < n; j++ {
		var ss float64
		for i := 0; i < m; i++ {
			x := w.At(i, j)
			ss += x * x
		}
		sig[j] = math.Sqrt(ss)
	}
	// Sort descending, permuting w's and v's columns alongside.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ { // selection sort: n is small here
		best := i
		for j := i + 1; j < n; j++ {
			if sig[order[j]] > sig[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	maxSig := 0.0
	if n > 0 {
		maxSig = sig[order[0]]
	}
	rank := 0
	for _, j := range order {
		if sig[j] <= svdRankTol*maxSig || sig[j] == 0 {
			break
		}
		rank++
	}
	u := NewDense(m, rank)
	vOut := NewDense(n, rank)
	sOut := make([]float64, rank)
	for to := 0; to < rank; to++ {
		from := order[to]
		sOut[to] = sig[from]
		inv := 1 / sig[from]
		for i := 0; i < m; i++ {
			u.Set(i, to, w.At(i, from)*inv)
		}
		for i := 0; i < n; i++ {
			vOut.Set(i, to, v.At(i, from))
		}
	}
	return &SVDResult{U: u, S: sOut, V: vOut}
}
