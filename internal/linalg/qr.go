package linalg

import (
	"fmt"
	"math"

	"github.com/tree-svd/treesvd/internal/par"
)

// qrDeflationTol is the relative column-norm floor below which QRThinW
// treats a column as numerically dependent on its predecessors.
const qrDeflationTol = 1e-13

// QRThinW computes the thin QR factorization A = Q·R of an m×n matrix
// with m ≥ n using Householder reflections, with a worker budget. Q is
// m×n with orthonormal columns and R is n×n upper triangular. The
// working matrix is held transposed so that every Householder vector and
// every column it touches is a contiguous slice — the inner loops are
// pure []float64 traversals.
//
// The two O(m·n) passes per reflector — applying it to the trailing
// columns and, later, accumulating Q — write one working-matrix row per
// column index and read only the reflector (frozen before the pass), so
// both fan out over column panels; results are identical for every
// worker count. The reflector construction itself is a serial O(m) scan.
func QRThinW(a *Dense, workers int) (q, r *Dense) {
	wt, qt := qrFactor(a, workers)
	n := a.Cols
	r = NewDense(n, n)
	for i := 0; i < n; i++ {
		ri := r.Row(i)
		for j := i; j < n; j++ {
			ri[j] = wt.Row(j)[i]
		}
	}
	q = transposeInto(NewDense(a.Rows, n), qt)
	PutDense(wt)
	PutDense(qt)
	return q, r
}

// qrFactor runs the Householder QR of a. It returns two pooled n×m
// matrices the caller must PutDense: wt, whose row j holds column j of R
// in its first j+1 entries, and qt = Qᵀ.
func qrFactor(a *Dense, workers int) (wt, qt *Dense) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("linalg: QRThinW requires rows ≥ cols, got %d×%d", m, n))
	}
	wt = transposeInto(GetDense(n, m), a) // wt.Row(k) is column k of A
	betas := make([]float64, n)
	v0 := make([]float64, n)
	// Deflation floor: a column whose remaining norm is rounding noise
	// relative to the input must not seed a reflector — on rank-deficient
	// inputs such junk reflectors amplify noise exponentially across
	// steps. The column is zeroed instead (R gets an exact zero).
	floor := qrDeflationTol * Norm2(a.Data)
	// The reflector-application closure is hoisted out of the step loop and
	// parameterized through the c* locals (one escaping closure per
	// factorization instead of one per reflector); tgt switches between the
	// trailing-column pass and the Q-accumulation pass.
	var (
		tgt      *Dense
		ck, coff int
		cbeta    float64
		cvk      float64
		ctail    []float64
	)
	applyReflector := func(jlo, jhi int) {
		for j := coff + jlo; j < coff+jhi; j++ {
			cj := tgt.Row(j)
			dot := cbeta * (cvk*cj[ck] + Dot(ctail, cj[ck+1:]))
			cj[ck] -= dot * cvk
			Axpy(cj[ck+1:], -dot, ctail)
		}
	}
	for k := 0; k < n; k++ {
		col := wt.Row(k)
		var norm float64
		for _, x := range col[k:] {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm <= floor {
			for i := k; i < m; i++ {
				col[i] = 0
			}
			continue
		}
		alpha := col[k]
		s := norm
		if alpha > 0 {
			s = -norm
		}
		v0[k] = alpha - s
		col[k] = s
		vtv := v0[k] * v0[k]
		for _, x := range col[k+1:] {
			vtv += x * x
		}
		if vtv == 0 {
			continue
		}
		beta := 2 / vtv
		betas[k] = beta
		tgt, ck, coff, cbeta, cvk, ctail = wt, k, k+1, beta, v0[k], col[k+1:]
		pw := kernelWorkers(workers, n-k-1, 2*(n-k-1)*(m-k))
		par.ForChunks(n-k-1, pw, applyReflector)
	}
	// Accumulate Q (transposed: qt.Row(j) is column j of Q) by applying
	// reflectors in reverse to the identity's first n columns. Reflector k
	// touches rows k.. only, and when it runs every column j < k is still
	// e_j, zero there: it is applied to columns j ≥ k alone, which changes
	// no bit of Q.
	qt = GetDense(n, m)
	for j := 0; j < n; j++ {
		qt.Row(j)[j] = 1
	}
	for k := n - 1; k >= 0; k-- {
		beta := betas[k]
		if beta == 0 {
			continue
		}
		tgt, ck, coff, cbeta, cvk, ctail = qt, k, k, beta, v0[k], wt.Row(k)[k+1:]
		pw := kernelWorkers(workers, n-k, 2*(n-k)*(m-k))
		par.ForChunks(n-k, pw, applyReflector)
	}
	return wt, qt
}

// OrthonormalizeW replaces the columns of a with an orthonormal basis of
// their span (the Q factor of a thin QR) and returns a. It is the
// re-orthonormalization step of randomized subspace iteration. Q is
// transposed straight into a; R is never formed.
func OrthonormalizeW(a *Dense, workers int) *Dense {
	wt, qt := qrFactor(a, workers)
	transposeInto(a, qt)
	PutDense(wt)
	PutDense(qt)
	return a
}
