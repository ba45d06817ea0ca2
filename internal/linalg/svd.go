package linalg

import (
	"math"
	"slices"
	"sort"
)

// SVDResult holds a (possibly truncated) singular value decomposition
// A ≈ U·diag(S)·Vᵀ. U is rows×r, S has length r (descending, non-negative),
// V is cols×r (so Vᵀ is r×cols). V may be nil when the caller requested
// left factors only.
type SVDResult struct {
	U *Dense
	S []float64
	V *Dense
}

// Rank returns the number of retained singular triplets.
func (r *SVDResult) Rank() int { return len(r.S) }

// US returns U·diag(S), the "left embedding" matrix Ū = AV used throughout
// Tree-SVD as the compressed representation of a block.
func (r *SVDResult) US() *Dense {
	out := r.U.Clone()
	return out.MulDiag(r.S)
}

// USqrtS returns U·diag(√S), the embedding convention X = U√Σ of
// STRAP/NRP used for the final subset embedding.
func (r *SVDResult) USqrtS() *Dense {
	sq := make([]float64, len(r.S))
	for i, s := range r.S {
		if s > 0 {
			sq[i] = math.Sqrt(s)
		}
	}
	out := r.U.Clone()
	return out.MulDiag(sq)
}

// Truncate keeps the top d singular triplets (no-op if rank ≤ d).
func (r *SVDResult) Truncate(d int) *SVDResult {
	if d >= len(r.S) {
		return r
	}
	out := &SVDResult{U: r.U.SliceCols(0, d), S: append([]float64(nil), r.S[:d]...)}
	if r.V != nil {
		out.V = r.V.SliceCols(0, d)
	}
	return out
}

// Reconstruct returns U·diag(S)·Vᵀ. V must be present.
func (r *SVDResult) Reconstruct() *Dense {
	if r.V == nil {
		panic("linalg: Reconstruct requires V")
	}
	return MulT(r.US(), r.V)
}

// TailEnergy returns √(‖A‖²_F − Σ_{i<d} σ_i²) given the full Frobenius norm
// of the original matrix: the Frobenius distance ‖A − (A)_d‖_F when the
// decomposition is exact. It is the cached residual used by the lazy-update
// trigger (Lemma 3.4).
func (r *SVDResult) TailEnergy(frobNorm float64, d int) float64 {
	t := frobNorm * frobNorm
	for i := 0; i < d && i < len(r.S); i++ {
		t -= r.S[i] * r.S[i]
	}
	if t < 0 {
		t = 0 // rounding
	}
	return math.Sqrt(t)
}

// svdRankTol drops singular values below this relative threshold: they are
// numerically zero and their singular vectors are noise.
const svdRankTol = 1e-13

// SVD computes the exact thin SVD of a dense matrix via the eigensystem of
// the Gram matrix of the smaller side. For an m×n matrix with n ≤ m it
// eigendecomposes AᵀA (n×n); otherwise AAᵀ. This squares the condition
// number, which is acceptable for embedding workloads (singular values
// below √ε·σ₁ carry no embedding signal); tests cross-validate it
// against a one-sided Jacobi SVD, which does not.
func SVD(a *Dense) *SVDResult {
	return svdLimited(a, -1, 1)
}

// SVDW is SVD with a worker budget for the Gram product, the eigensolve
// and the singular-vector recovery.
func SVDW(a *Dense, workers int) *SVDResult {
	return svdLimited(a, -1, workers)
}

// SVDTrunc computes the top-d thin SVD. It is exact, not sketched: the
// Gram matrix's whole spectrum is computed and cut at d, but for d well
// below min(rows, cols) only the d kept eigenvectors are (see gramEig),
// and only the top d singular vectors of the larger side are recovered.
func SVDTrunc(a *Dense, d int) *SVDResult {
	return svdLimited(a, d, 1)
}

// SVDTruncW is SVDTrunc with a worker budget.
func SVDTruncW(a *Dense, d, workers int) *SVDResult {
	return svdLimited(a, d, workers)
}

// SVDRefine factors a inside the span one block power step reaches from
// u, an orthonormal basis of r columns, given w = uᵀ·a (r×cols): Q =
// orth(a·wᵀ), then Rayleigh–Ritz on Q — the exact SVD of the small
// r×cols matrix Qᵀ·a = Q̃·S·Rᵀ gives U = Q·Q̃, S and V = R, signs
// normalized as for every other SVD here. U spans Q up to the numerically
// zero directions the small SVD drops, so the result's projection error
// is exact and free: ‖a − U·Uᵀ·a‖²_F = ‖a‖²_F − Σ S² (TailEnergy), and
// S·Vᵀ = Uᵀ·a is the next refine's w. It costs two products of a with an
// r-wide panel, an rows×r QR and an r×r eigensolve, against the cols×cols
// Gram and eigensolve of SVDTrunc. The caller supplies w because it
// usually holds most of it: a tree node caches S·Vᵀ from its last
// factorization, and only the panels of changed children need a product.
func SVDRefine(a, w *Dense, workers int) *SVDResult {
	q := OrthonormalizeW(MulTW(a, w, workers), workers)
	small := SVDW(TMulW(q, a, workers), workers)
	res := &SVDResult{U: MulW(q, small.U, workers), S: small.S, V: small.V}
	fixSigns(res.U, res.V)
	return res
}

// SigmaVt returns S·Vᵀ (r×cols) of a result that carries V: Uᵀ·A for the
// A it factors, in exact arithmetic.
func (r *SVDResult) SigmaVt() *Dense {
	p := r.V.T()
	for i, s := range r.S {
		row := p.Row(i)
		for k := range row {
			row[k] *= s
		}
	}
	return p
}

// SymEigvals returns the eigenvalues of the symmetric matrix g,
// descending, without eigenvectors: the Householder reduction gramEig
// starts from, then the QL iteration on the tridiagonal alone, O(n³/3)
// all told. g is destroyed.
func SymEigvals(g *Dense, workers int) []float64 {
	n := g.Rows
	h, e := make([]float64, n), make([]float64, n)
	tred2Reduce(g, h, e, workers)
	lam := make([]float64, n)
	for i := range lam {
		lam[i] = g.Data[i*n+i]
	}
	tql2(nil, lam, e, 1)
	sort.Float64s(lam)
	slices.Reverse(lam)
	return lam
}

// svdLimited is the shared Gram-route implementation; maxRank < 0 keeps
// every numerically non-zero triplet. The Gram matrix of the smaller side
// is pooled scratch that the eigensolver reduces in place, so every tree
// merge reuses the same storage. Signs are normalized here, in one place
// for both eigensolver routes: the largest-magnitude component of each
// left singular vector (lowest index on ties) is positive.
func svdLimited(a *Dense, maxRank, workers int) *SVDResult {
	m, n := a.Rows, a.Cols
	if m == 0 || n == 0 {
		return &SVDResult{U: NewDense(m, 0), S: nil, V: NewDense(n, 0)}
	}
	wide := n > m
	g := GetDense(min(m, n), min(m, n))
	if wide {
		gramTInto(g, a, workers)
	} else {
		gramInto(g, a, workers)
	}
	s, small := gramEig(g, maxRank, workers)
	PutDense(g)
	// The other side from the eigenvectors: U = A·V·Σ⁻¹ or V = Aᵀ·U·Σ⁻¹.
	var large *Dense
	if wide {
		large = TMulW(a, small, workers)
	} else {
		large = MulW(a, small, workers)
	}
	invScaleCols(large, s)
	res := &SVDResult{U: large, S: s, V: small}
	if wide {
		res.U, res.V = small, large
	}
	fixSigns(res.U, res.V)
	return res
}

// Rows of gramEig's scratch slab.
const (
	rowH    = iota // reflector scales; the full route's eigenvalues
	rowE           // subdiagonal of the tridiagonal T
	rowDiag        // diagonal of T
	rowLam         // eigenvalues, descending
	rowE2          // the eigenvalue-only QL's copy of e
	rowLU          // 5 rows: tridiagVectors' factorization
	rowVecs = rowLU + 5
)

// gramEig returns the singular values s (descending, cut at svdRankTol
// and at maxRank when maxRank ≥ 0) of a matrix from its Gram matrix g,
// and the len(s) matching eigenvectors of g as columns. g is destroyed.
//
// Both routes start from one Householder reduction of g. When few
// eigenpairs are wanted (maxRank·partialEigRatio ≤ n) the top-d route
// of topeig.go computes only those; should one of its vectors fail the
// residual gate, the call continues from the same reduction into the
// full solver (accumulate, rotating QL), as it does when many or all
// pairs are wanted. The eigenvalues are the same bits either way. All
// scratch is one slab: the rows named above, then the d×n panel the
// top-d route builds its vectors in. It is allocated per call, not
// pooled: the pool hands any buffer to any request, and a small request
// on every level-1 SVD beside the merges' large ones drove every pooled
// buffer to the largest size (+3 MB live heap on ingest-churn).
func gramEig(g *Dense, maxRank, workers int) ([]float64, *Dense) {
	n := g.Rows
	partial := maxRank >= 0 && maxRank*partialEigRatio <= n && !ForceFullEig.Load()
	panel := 0
	if partial {
		panel = maxRank
	}
	ws := NewDense(rowVecs+panel, n)
	h, e := ws.Row(rowH), ws.Row(rowE)
	tred2Reduce(g, h, e, workers)
	if partial {
		diag, lam, e2 := ws.Row(rowDiag), ws.Row(rowLam), ws.Row(rowE2)
		for i := range diag {
			diag[i] = g.Data[i*n+i]
		}
		copy(lam, diag)
		copy(e2, e)
		tql2(nil, lam, e2, 1)
		sort.Float64s(lam)
		slices.Reverse(lam)
		s := sigmaFromLambda(lam, maxRank)
		vt := NewDenseData(len(s), n, ws.Data[rowVecs*n:][:len(s)*n])
		if tridiagVectors(vt, diag, e, lam, ws.Data[rowLU*n:rowVecs*n]) {
			backTransform(vt, g, h, workers)
			return s, vt.T()
		}
		eigFallbacks.Inc()
	}
	tred2Accumulate(g, h, workers)
	tql2(g, h, e, workers)
	v := g.T()
	sortEig(h, v)
	s := sigmaFromLambda(h, maxRank)
	return s, v.SliceCols(0, len(s))
}

// sigmaFromLambda turns the descending spectrum of a Gram matrix into
// singular values, dropping the numerically zero tail and everything
// past maxRank (when maxRank ≥ 0).
func sigmaFromLambda(lambda []float64, maxRank int) []float64 {
	if len(lambda) == 0 || lambda[0] <= 0 {
		return nil
	}
	if maxRank >= 0 && maxRank < len(lambda) {
		lambda = lambda[:maxRank]
	}
	s := make([]float64, 0, len(lambda))
	for _, l := range lambda {
		if l <= svdRankTol*lambda[0] {
			break
		}
		s = append(s, math.Sqrt(l))
	}
	return s
}

// fixSigns flips singular pairs (column j of u and of v) so that the
// largest-magnitude entry of every u column, the first such on ties, is
// positive.
func fixSigns(u, v *Dense) {
	big := make([]float64, u.Cols) // signed extreme entry per column
	for i := 0; i < u.Rows; i++ {
		for j, x := range u.Row(i) {
			if math.Abs(x) > math.Abs(big[j]) {
				big[j] = x
			}
		}
	}
	for _, m := range []*Dense{u, v} {
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for j := range row {
				if big[j] < 0 {
					row[j] = -row[j]
				}
			}
		}
	}
}

func invScaleCols(m *Dense, s []float64) {
	inv := make([]float64, len(s))
	for i, v := range s {
		inv[i] = 1 / v
	}
	m.MulDiag(inv)
}
