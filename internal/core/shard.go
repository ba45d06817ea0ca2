package core

import (
	"fmt"
	"math"

	"github.com/tree-svd/treesvd/internal/linalg"
)

// ShardRanges partitions n items into k contiguous near-equal ranges
// [lo, hi). The first n mod k ranges get one extra item, so sizes differ
// by at most one and the concatenation of the ranges covers [0, n)
// exactly. k is clamped to [1, max(n, 1)]: asking for more shards than
// items would produce empty shards, which the facade rejects earlier
// with a typed error.
func ShardRanges(n, k int) [][2]int {
	if k < 1 {
		k = 1
	}
	if k > n && n > 0 {
		k = n
	}
	out := make([][2]int, k)
	lo := 0
	for i := 0; i < k; i++ {
		size := n / k
		if i < n%k {
			size++
		}
		out[i] = [2]int{lo, lo + size}
		lo += size
	}
	return out
}

// MergedRoot is the coordinator's factorization assembled above the
// shard boundary: a rank-d truncated SVD of the full row-stacked
// proximity matrix M = [M_1; …; M_K], recovered from the per-shard
// roots without ever materializing M.
//
// Let shard i hold M_i ≈ U_i Σ_i V_iᵀ and let W_i = M_iᵀ·U_i (n×d_i),
// the projection of M_i onto its own left factors. Because the block-
// diagonal matrix diag(U_1, …, U_K) has orthonormal columns, the best
// rank-d approximation of M restricted to the span of the shard factors
// is obtained from one small SVD of W_all = [W_1 … W_K] ≈ P·Σ_g·Qᵀ:
//
//	U_g = diag(U_1, …, U_K) · Q   (|S|×d, rows grouped by shard)
//	Σ_g = Σ_g, V_g = P             (n×d)
//
// This is exactly the H-concat + re-SVD step Tree-SVD already uses
// between tree levels (Section 3.2), lifted one level above the
// per-shard trees.
//
// Mix[i] holds Q_i, the d_i×d block of rows of Q belonging to shard i.
// It lets the coordinator evaluate projections of M without touching M:
// Mᵀ·U_g = Σ_i W_i·Q_i, which drives the reconstruction-error identity.
type MergedRoot struct {
	// Root is the merged factorization {U_g, Σ_g, V_g} with V_g = P.
	Root *linalg.SVDResult
	// Mix[i] is Q_i: shard i's d_i×d mixing block (a row-view into Q).
	Mix []*linalg.Dense
}

// MergeShardRoots merges per-shard root factorizations into one global
// rank≤rank root. roots[i] is shard i's tree root over M_i; ws[i] must
// be W_i = M_iᵀ·(roots[i].U) with the same column count as
// roots[i].Rank() and one row per graph node (all ws share n rows).
// The ws slices are only read.
func MergeShardRoots(roots []*linalg.SVDResult, ws []*linalg.Dense, rank, workers int) (*MergedRoot, error) {
	if len(roots) == 0 || len(roots) != len(ws) {
		return nil, fmt.Errorf("core: merge of %d roots with %d projections", len(roots), len(ws))
	}
	n := ws[0].Rows
	total, rowsS := 0, 0
	for i, r := range roots {
		if ws[i].Rows != n {
			return nil, fmt.Errorf("core: shard %d projection has %d rows, want %d", i, ws[i].Rows, n)
		}
		if ws[i].Cols != r.Rank() {
			return nil, fmt.Errorf("core: shard %d projection has %d cols for a rank-%d root", i, ws[i].Cols, r.Rank())
		}
		total += r.Rank()
		rowsS += r.U.Rows
	}
	if total == 0 {
		// Every shard is rank-0 (empty proximity): the merged root is the
		// empty factorization, mirroring svdLimited's degenerate case.
		mr := &MergedRoot{Root: &linalg.SVDResult{U: linalg.NewDense(rowsS, 0), V: linalg.NewDense(n, 0)}}
		mr.Mix = make([]*linalg.Dense, len(roots))
		for i := range mr.Mix {
			mr.Mix[i] = linalg.NewDense(0, 0)
		}
		return mr, nil
	}
	wall := linalg.GetDense(n, total)
	linalg.HCatInto(wall, ws...)
	svd := linalg.SVDTruncW(wall, rank, workers)
	linalg.PutDense(wall)
	d := svd.Rank()
	// Assemble U_g shard by shard: rows [rowOff, rowOff+|S_i|) are U_i·Q_i.
	ug := linalg.NewDense(rowsS, d)
	mix := make([]*linalg.Dense, len(roots))
	colOff, rowOff := 0, 0
	for i, r := range roots {
		di := r.Rank()
		// Q's rows are contiguous in svd.V.Data, so Q_i is a zero-copy view.
		qi := linalg.NewDenseData(di, d, svd.V.Data[colOff*d:(colOff+di)*d])
		mix[i] = qi
		if di > 0 && r.U.Rows > 0 {
			blk := linalg.MulW(r.U, qi, workers)
			copy(ug.Data[rowOff*d:(rowOff+r.U.Rows)*d], blk.Data)
		}
		colOff += di
		rowOff += r.U.Rows
	}
	return &MergedRoot{Root: &linalg.SVDResult{U: ug, S: svd.S, V: svd.U}, Mix: mix}, nil
}

// Projection returns Mᵀ·U_g = Σ_i W_i·Q_i (n×d) given the same ws slice
// passed to MergeShardRoots. It is the sharded counterpart of DynRow's
// TMulDense over the full matrix, at cost O(n·Σd_i·d) dense work.
func (mr *MergedRoot) Projection(ws []*linalg.Dense, workers int) *linalg.Dense {
	d := mr.Root.Rank()
	n := 0
	if len(ws) > 0 {
		n = ws[0].Rows
	}
	acc := linalg.NewDense(n, d)
	for i, w := range ws {
		if i >= len(mr.Mix) || mr.Mix[i].Rows == 0 {
			continue
		}
		p := linalg.MulW(w, mr.Mix[i], workers)
		for j, v := range p.Data {
			acc.Data[j] += v
		}
	}
	return acc
}

// ReconstructionError returns ‖M − U_g·U_gᵀ·M‖_F via the projection
// identity ‖M‖²_F − ‖U_gᵀM‖²_F, given frob = ‖M‖_F (the root-sum-square
// of the per-shard block norms) and the ws slice from the merge. It is
// the sharded counterpart of Tree.ReconstructionError.
func (mr *MergedRoot) ReconstructionError(ws []*linalg.Dense, frob float64, workers int) float64 {
	if mr.Root.Rank() == 0 {
		return frob
	}
	proj := mr.Projection(ws, workers).FrobNorm()
	diff := frob*frob - proj*proj
	if diff < 0 {
		diff = 0
	}
	return math.Sqrt(diff)
}
