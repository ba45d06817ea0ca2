package treesvd

import (
	"context"
	"fmt"

	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// SparseMatrix accumulates a rows×cols sparse matrix in triplet form for
// FactorizeMatrix — the paper's "Tree-SVD is not limited to subset
// embedding" use case: fast truncated SVD of any rectangular matrix with
// far fewer rows than columns.
type SparseMatrix struct {
	rows, cols int
	b          *sparse.Builder
}

// NewSparseMatrix creates an empty rows×cols triplet accumulator.
func NewSparseMatrix(rows, cols int) *SparseMatrix {
	return &SparseMatrix{rows: rows, cols: cols, b: sparse.NewBuilder(rows, cols)}
}

// Set records entry (i,j) = v; duplicate coordinates are summed.
func (m *SparseMatrix) Set(i, j int, v float64) { m.b.Add(i, j, v) }

// Dims returns (rows, cols).
func (m *SparseMatrix) Dims() (int, int) { return m.rows, m.cols }

// SVDResult is a truncated singular value decomposition A ≈ U·diag(S)·Vᵀ
// with U rows×rank, S descending, V cols×rank.
type SVDResult struct {
	U [][]float64
	S []float64
	V [][]float64
}

// Rank returns the number of retained singular triplets.
func (r *SVDResult) Rank() int { return len(r.S) }

// FactorizeMatrix computes the top-Dim truncated SVD of a sparse
// rectangular matrix with the static Tree-SVD scheme (Algorithm 3):
// column blocks → sparse randomized SVD per block → hierarchical exact
// merges. For a c×n matrix with c ≪ n it carries the (1+ε)(1+√2)^(q-1)
// Frobenius guarantee of Theorem 3.2 at a fraction of a full randomized
// SVD's cost once n is large. Only Dim, Branch, Levels, Seed and Workers
// of cfg are used.
func FactorizeMatrix(m *SparseMatrix, cfg Config) (*SVDResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	tcfg := core.Config{
		Rank: cfg.Dim, Branch: cfg.Branch, Levels: cfg.Levels,
		Delta: cfg.Delta, Seed: cfg.Seed, Workers: cfg.Workers,
	}
	csr := m.b.Build()
	if csr.NNZ() == 0 {
		return nil, fmt.Errorf("treesvd: matrix is empty")
	}
	// The static scheme is one Build of the dynamic tree over the matrix.
	dyn := sparse.NewDynRow(csr.Rows, csr.Cols, tcfg.Blocks())
	for r := 0; r < csr.Rows; r++ {
		for p := csr.RowPtr[r]; p < csr.RowPtr[r+1]; p++ {
			dyn.Set(r, int(csr.ColIdx[p]), csr.Val[p])
		}
	}
	tree, err := core.NewTree(dyn, tcfg)
	if err != nil {
		return nil, err
	}
	if err := tree.Build(context.Background()); err != nil {
		return nil, err
	}
	root := tree.Root()
	out := &SVDResult{S: append([]float64(nil), root.S...)}
	out.U = make([][]float64, root.U.Rows)
	for i := range out.U {
		out.U[i] = append([]float64(nil), root.U.Row(i)...)
	}
	// Recover the right singular matrix Ṽ = Σ⁻¹·Uᵀ·A (Theorem 3.2) in one
	// sparse pass.
	vt := csr.TMulDenseW(root.U, tcfg.Workers) // cols×rank = Aᵀ·U
	inv := make([]float64, len(root.S))
	for i, s := range root.S {
		if s > 0 {
			inv[i] = 1 / s
		}
	}
	vt.MulDiag(inv)
	out.V = make([][]float64, vt.Rows)
	for i := range out.V {
		out.V[i] = append([]float64(nil), vt.Row(i)...)
	}
	return out, nil
}
