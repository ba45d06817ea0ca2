package linalg

import (
	"fmt"
	"math"

	"github.com/tree-svd/treesvd/internal/par"
)

// SymEig computes the full eigendecomposition A = V·diag(λ)·Vᵀ of a
// symmetric matrix. Eigenvalues are returned in descending order with
// matching eigenvector columns in V.
func SymEig(a *Dense) (lambda []float64, v *Dense) { return SymEigW(a, 1) }

// SymEigW is SymEig with a worker budget for the O(n²)-per-step inner
// loops. The implementation is the classic two-stage dense symmetric
// solver: Householder reduction to tridiagonal form (tred2) followed by
// the implicit-shift QL iteration (tql2), both accumulating the
// orthogonal transform. The parallelized loops (the rank-2 update and
// transform accumulation of tred2, the rotation application of tql2)
// partition disjoint output rows or columns with a fixed per-element
// operation order, so the result is identical for every worker count.
//
// It is O(n³) with a small constant — an order of magnitude faster than
// the cyclic Jacobi method kept in JacobiSymEig, which tests use as an
// independent cross-check.
func SymEigW(a *Dense, workers int) (lambda []float64, v *Dense) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("linalg: SymEig requires a square matrix, got %d×%d", n, a.Cols))
	}
	if n == 0 {
		return nil, NewDense(0, 0)
	}
	// Both stages run on the transposed representation (row i holds what
	// the textbook formulation calls column i) so every inner loop walks a
	// contiguous slice; the input is symmetric, so no initial transpose is
	// needed.
	vt := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2Reduce(vt, d, e, workers)
	tred2Accumulate(vt, d, workers)
	tql2(vt, d, e, workers)
	v = vt.T()
	sortEig(d, v)
	return d, v
}

// tred2Reduce reduces the symmetric matrix zt to tridiagonal form
// T = Qᵀ·A·Q, Q = H_{n-1}···H_1 with H_i = I − u_i·u_iᵀ/h_i acting on the
// first i coordinates. On return the diagonal of T is the diagonal of
// zt, e[1:] its subdiagonal, row i of zt holds u_i in columns [0, i) and
// d[i] holds h_i (0: H_i = I; d[0] unused) — everything either solver
// needs: tred2Accumulate forms Q from it, backTransform applies Q to a
// few vectors without forming it. The textbook V[a][b] maps to
// zt.Row(b)[a], which makes every inner loop a contiguous slice walk.
//
// The O(l²) symmetric rank-2 update of each step touches one zt row per
// j index and reads only shared state written before the pass, so it
// fans out over j-panels; the deferred d[j] writes keep the parallel
// schedule identical to the serial one. The symmetric matrix-vector
// product stays serial: it accumulates into e across j, and only the
// upper triangle of the active submatrix is valid, so splitting it
// would need per-worker reduction buffers for a loop that is at most a
// third of the step.
func tred2Reduce(zt *Dense, d, e []float64, workers int) {
	n := zt.Rows
	copy(d, zt.Row(n-1)) // symmetric input: row n-1 == column n-1
	// The parallel pass closures are hoisted out of the O(n) step loops and
	// parameterized through ci/cl (the current step's i and l): a closure
	// literal passed to ForChunks escapes, and allocating one per step
	// would dominate the allocation profile of every small eigensolve.
	var ci, cl int
	rank2 := func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			fj, gj := d[j], e[j]
			rowJ := zt.Row(j)
			for k := j; k <= cl; k++ {
				rowJ[k] -= fj*e[k] + gj*d[k]
			}
			rowJ[ci] = 0
		}
	}
	for i := n - 1; i > 0; i-- {
		l := i - 1
		var h, scale float64
		for k := 0; k <= l; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[l]
			rowI := zt.Row(i)
			for j := 0; j <= l; j++ {
				d[j] = zt.Row(j)[l]
				zt.Row(j)[i] = 0
				rowI[j] = 0
			}
		} else {
			for k := 0; k <= l; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[l]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[l] = f - g
			for j := 0; j <= l; j++ {
				e[j] = 0
			}
			rowI := zt.Row(i)
			for j := 0; j <= l; j++ {
				f = d[j]
				rowI[j] = f
				rowJ := zt.Row(j)
				g = e[j] + rowJ[j]*f
				for k := j + 1; k <= l; k++ {
					g += rowJ[k] * d[k]
					e[k] += rowJ[k] * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j <= l; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j <= l; j++ {
				e[j] -= hh * d[j]
			}
			// Rank-2 update A ← A − v·wᵀ − w·vᵀ on the upper triangle.
			// Every task reads d/e (frozen for the pass) and writes only
			// its own rows; d[j] ← rowJ[l] is deferred past the barrier so
			// no task observes another's update.
			ci, cl = i, l
			par.ForChunks(l+1, kernelWorkers(workers, l+1, (l+1)*(l+1)/2), rank2)
			for j := 0; j <= l; j++ {
				d[j] = zt.Row(j)[l]
			}
		}
		d[i] = h
	}
	e[0] = 0
}

// tred2Accumulate turns tred2Reduce's output into the explicit transform:
// zt becomes Qᵀ (row j is column j of Q) and d the diagonal of T. Each
// step applies one reflector to the rows accumulated so far; the rows
// are independent, so the pass fans out over j-panels.
func tred2Accumulate(zt *Dense, d []float64, workers int) {
	n := zt.Rows
	var cl int // current step, read by the hoisted closure (see tred2Reduce)
	accumulate := func(jlo, jhi int) {
		rowL := zt.Row(cl)
		for j := jlo; j < jhi; j++ {
			rowJ := zt.Row(j)[:cl]
			g := Dot(rowL[:cl], rowJ)
			axpy(rowJ, -g, d[:cl])
		}
	}
	for i := 0; i < n-1; i++ {
		rowI := zt.Row(i)
		rowI[n-1] = rowI[i]
		rowI[i] = 1
		l := i + 1
		rowL := zt.Row(l)
		if d[l] != 0 {
			for k := 0; k < l; k++ {
				d[k] = rowL[k] / d[l]
			}
			cl = l
			par.ForChunks(l, kernelWorkers(workers, l, l*l), accumulate)
		}
		for k := 0; k < l; k++ {
			rowL[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		rowJ := zt.Row(j)
		d[j] = rowJ[n-1]
		rowJ[n-1] = 0
	}
	zt.Row(n - 1)[n-1] = 1
}

// tql2 diagonalizes the tridiagonal matrix (d, e) with implicit-shift QL
// iterations, leaving the eigenvalues (unsorted) in d. With zt non-nil it
// rotates the eigenvector matrix alongside: zt holds it transposed, row i
// of zt is eigenvector column i. With zt nil only the scalar recurrence
// runs — eigenvalues alone, O(n²), and bit-identical to the ones the
// rotating run produces, since the recurrence never reads zt. The
// routine is a port of the EISPACK/JAMA tql2, whose shift strategy and
// global deflation test are robust to the clustered and near-zero
// eigenvalues that Gram matrices of nearly low-rank blocks produce.
//
// The scalar rotation recurrence is inherently serial but O(m−l); the
// O((m−l)·n) application of the rotation chain to the eigenvector rows —
// the dominant cost of the whole eigensolve — is replayed per column
// chunk, every chunk applying the chain in the same order, so it fans
// out across the worker budget with a bit-identical result.
func tql2(zt *Dense, d, e []float64, workers int) {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	var cs, sn []float64
	if zt != nil {
		cs = make([]float64, n)
		sn = make([]float64, n)
	}
	// Hoisted out of the QL iteration (see the matching comment in
	// tred2Reduce): replays the rotation chain recorded in cs/sn for rows
	// cl..cm-1 on one column chunk of the eigenvector matrix.
	var cm, cll int
	replay := func(klo, khi int) {
		for i := cm - 1; i >= cll; i-- {
			ri, ri1 := zt.Row(i), zt.Row(i+1)
			ci, si := cs[i], sn[i]
			for k := klo; k < khi; k++ {
				h := ri1[k]
				ri1[k] = si*ri[k] + ci*h
				ri[k] = ci*ri[k] - si*h
			}
		}
	}
	var f, tst1 float64
	for l := 0; l < n; l++ {
		if s := math.Abs(d[l]) + math.Abs(e[l]); s > tst1 {
			tst1 = s
		}
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps52*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter > 1000 {
					panic(fmt.Sprintf("linalg: tql2 failed to converge: l=%d m=%d d=%v e=%v", l, m, d, e))
				}
				// Compute the implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// Implicit QL transformation: run the scalar recurrence
				// first, recording each plane rotation...
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3, c2, s2 = c2, c, s
					g = c * e[i]
					h = c * p
					r = hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					if zt != nil {
						cs[i], sn[i] = c, s
					}
				}
				// ...then replay the chain on the eigenvector rows, split
				// over column chunks.
				if zt != nil {
					cm, cll = m, l
					par.ForChunks(n, kernelWorkers(workers, n, 6*(m-l)*n), replay)
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps52*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
}

// hypot is math.Hypot, which pays a division and several branches on
// every call to be safe where p² + q² would overflow or underflow, with
// the plain form for the sums that cannot: one inside [2⁻⁹⁰⁰, 2⁹⁰⁰] had
// each term either exact to rounding or below 2⁻¹²² of the other. The QL
// recurrence calls it once per rotation, and in the eigenvalue-only run
// it was 45 % of the time.
func hypot(p, q float64) float64 {
	if s := p*p + q*q; s >= 0x1p-900 && s <= 0x1p900 {
		return math.Sqrt(s)
	}
	return math.Hypot(p, q)
}

// JacobiSymEig is the cyclic Jacobi eigensolver — slower than SymEig but
// algorithmically independent; tests cross-validate the two.
func JacobiSymEig(a *Dense) (lambda []float64, v *Dense) {
	if a.Cols != a.Rows {
		panic(fmt.Sprintf("linalg: JacobiSymEig requires a square matrix, got %d×%d", a.Rows, a.Cols))
	}
	n := a.Rows
	w := a.Clone()
	v = Identity(n)
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
