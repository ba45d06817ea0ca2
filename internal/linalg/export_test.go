package linalg

import (
	"math/rand"
	"slices"
	"sort"
)

// MergeStages exposes the stages of the top-d Gram-route SVD to the
// external benchmark package (bench_test.go), each runnable alone on
// inputs prepared once: the stage benchmarks attribute a merge's cost,
// and their sum is checked against the whole.
type MergeStages struct {
	a          *Dense
	d          int
	g, red, ws *Dense // Gram; its reduction; a slab laid out as gramEig's
	s          []float64
	v          *Dense
}

// NewMergeStages prepares the stage inputs for SVDTruncW(a, d, 1) on a
// tall or square a.
func NewMergeStages(a *Dense, d int) *MergeStages {
	n := a.Cols
	m := &MergeStages{a: a, d: d, g: NewDense(n, n), red: NewDense(n, n), ws: NewDense(rowVecs+d, n)}
	m.Gram()
	m.Reduce()
	m.Eigenvalues()
	m.Vectors()
	return m
}

func (m *MergeStages) row(i int) []float64 { return m.ws.Row(i) }

// Gram builds AᵀA.
func (m *MergeStages) Gram() { gramInto(m.g, m.a, 1) }

// Reduce tridiagonalizes a copy of the Gram matrix.
func (m *MergeStages) Reduce() {
	copy(m.red.Data, m.g.Data)
	tred2Reduce(m.red, m.row(rowH), m.row(rowE), 1)
	for i := range m.row(rowDiag) {
		m.row(rowDiag)[i] = m.red.At(i, i)
	}
}

// Eigenvalues runs the eigenvalue-only QL, sorts and cuts.
func (m *MergeStages) Eigenvalues() {
	lam, e2 := m.row(rowLam), m.row(rowE2)
	copy(lam, m.row(rowDiag))
	copy(e2, m.row(rowE))
	tql2(nil, lam, e2, 1)
	sort.Float64s(lam)
	slices.Reverse(lam)
	m.s = sigmaFromLambda(lam, m.d)
}

// Vectors runs inverse iteration for the kept eigenvalues and maps the
// vectors back through the reflectors.
func (m *MergeStages) Vectors() {
	n := m.g.Rows
	vt := NewDenseData(len(m.s), n, m.ws.Data[rowVecs*n:][:len(m.s)*n])
	if !tridiagVectors(vt, m.row(rowDiag), m.row(rowE), m.row(rowLam), m.ws.Data[rowLU*n:rowVecs*n]) {
		panic("linalg: residual gate failed in benchmark")
	}
	backTransform(vt, m.red, m.row(rowH), 1)
	m.v = vt.T()
}

// BackProject recovers U = A·V·Σ⁻¹ and normalizes signs.
func (m *MergeStages) BackProject() {
	u := MulW(m.a, m.v, 1)
	invScaleCols(u, m.s)
	fixSigns(u, m.v)
}

// MergeLike returns [U₁Σ₁ … U_kΣ_k], the concat Tree.merge factors: every
// child an orthonormal rows×d basis scaled by a decaying spectrum.
func MergeLike(rng *rand.Rand, rows, k, d int) *Dense {
	var children []*Dense
	for i := 0; i < k; i++ {
		u := NewDense(rows, d)
		for j := range u.Data {
			u.Data[j] = rng.NormFloat64()
		}
		sig := make([]float64, d)
		for j := range sig {
			sig[j] = 1 / float64(1+i+j*j)
		}
		children = append(children, OrthonormalizeW(u, 1).MulDiag(sig))
	}
	return HCat(children...)
}
