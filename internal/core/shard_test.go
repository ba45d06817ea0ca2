package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
)

func TestShardRanges(t *testing.T) {
	cases := []struct {
		n, k int
		want [][2]int
	}{
		{n: 7, k: 3, want: [][2]int{{0, 3}, {3, 5}, {5, 7}}},
		{n: 4, k: 1, want: [][2]int{{0, 4}}},
		{n: 4, k: 4, want: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{n: 3, k: 5, want: [][2]int{{0, 1}, {1, 2}, {2, 3}}}, // clamped
		{n: 5, k: 0, want: [][2]int{{0, 5}}},                 // clamped
	}
	for _, c := range cases {
		got := ShardRanges(c.n, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("ShardRanges(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ShardRanges(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
			}
		}
	}
}

// TestMergeShardRootsExact checks the merge identity: when the per-shard
// factorizations are exact (full-rank SVDs of the row blocks), the merged
// root is an exact SVD of the stacked matrix — same singular values as a
// direct SVD and a reconstruction that matches M entrywise.
func TestMergeShardRootsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rows, cols = 7, 12
	m := linalg.NewDense(rows, cols)
	for i := range m.Data {
		if rng.Float64() < 0.6 {
			m.Data[i] = rng.NormFloat64()
		}
	}
	direct := linalg.SVD(m)

	ranges := ShardRanges(rows, 3)
	roots := make([]*linalg.SVDResult, len(ranges))
	ws := make([]*linalg.Dense, len(ranges))
	for i, r := range ranges {
		mi := linalg.NewDenseData(r[1]-r[0], cols, m.Data[r[0]*cols:r[1]*cols])
		roots[i] = linalg.SVD(mi)
		ws[i] = linalg.TMul(mi, roots[i].U) // W_i = M_iᵀ·U_i
	}
	mr, err := MergeShardRoots(roots, ws, cols, 1)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := mr.Root.Rank(), direct.Rank(); got != want {
		t.Fatalf("merged rank %d, want %d", got, want)
	}
	for i, s := range direct.S {
		if math.Abs(mr.Root.S[i]-s) > 1e-9*(1+s) {
			t.Fatalf("σ_%d = %g, want %g", i, mr.Root.S[i], s)
		}
	}
	recon := mr.Root.Reconstruct()
	if d := linalg.MaxAbsDiff(recon, m); d > 1e-9 {
		t.Fatalf("merged reconstruction off by %g", d)
	}

	// Derived quantities match their full-matrix counterparts. The error
	// bound is loose: ‖M‖² − ‖proj‖² cancels catastrophically when the
	// merge is exact, so √diff floors around √ε·‖M‖.
	if got := mr.ReconstructionError(ws, m.FrobNorm(), 1); got > 1e-5 {
		t.Fatalf("exact merge has reconstruction error %g", got)
	}
	if d := linalg.MaxAbsDiff(mr.Projection(ws, 1), linalg.TMul(m, mr.Root.U)); d > 1e-9 {
		t.Fatalf("projection Mᵀ·U_g off by %g", d)
	}
}

// TestMergeShardRootsTruncated checks the rank-d merge: singular values
// match the direct rank-d SVD and the reconstruction error equals the
// optimal tail energy (the shard span contains the top-d subspace when
// the shard SVDs are exact).
func TestMergeShardRootsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const rows, cols, d = 8, 10, 3
	m := linalg.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	direct := linalg.SVDTrunc(m, d)

	ranges := ShardRanges(rows, 2)
	roots := make([]*linalg.SVDResult, len(ranges))
	ws := make([]*linalg.Dense, len(ranges))
	for i, r := range ranges {
		mi := linalg.NewDenseData(r[1]-r[0], cols, m.Data[r[0]*cols:r[1]*cols])
		roots[i] = linalg.SVD(mi)
		ws[i] = linalg.TMul(mi, roots[i].U)
	}
	mr, err := MergeShardRoots(roots, ws, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mr.Root.Rank(), direct.Rank(); got != want {
		t.Fatalf("merged rank %d, want %d", got, want)
	}
	for i, s := range direct.S {
		if math.Abs(mr.Root.S[i]-s) > 1e-9*(1+s) {
			t.Fatalf("σ_%d = %g, want %g", i, mr.Root.S[i], s)
		}
	}
	full := linalg.SVD(m)
	want := full.TailEnergy(m.FrobNorm(), d)
	if got := mr.ReconstructionError(ws, m.FrobNorm(), 1); math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("reconstruction error %g, want optimal %g", got, want)
	}
}

func TestMergeShardRootsEmpty(t *testing.T) {
	roots := []*linalg.SVDResult{
		{U: linalg.NewDense(2, 0)},
		{U: linalg.NewDense(3, 0)},
	}
	ws := []*linalg.Dense{linalg.NewDense(6, 0), linalg.NewDense(6, 0)}
	mr, err := MergeShardRoots(roots, ws, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Root.Rank() != 0 || mr.Root.U.Rows != 5 {
		t.Fatalf("empty merge: rank %d, U rows %d", mr.Root.Rank(), mr.Root.U.Rows)
	}
	if got := mr.ReconstructionError(ws, 0, 1); got != 0 {
		t.Fatalf("empty merge reconstruction error %g", got)
	}
}

func TestMergeShardRootsMismatch(t *testing.T) {
	roots := []*linalg.SVDResult{{U: linalg.NewDense(2, 1), S: []float64{1}}}
	if _, err := MergeShardRoots(roots, []*linalg.Dense{linalg.NewDense(4, 2)}, 2, 1); err == nil {
		t.Fatal("want error on W column mismatch")
	}
	if _, err := MergeShardRoots(nil, nil, 2, 1); err == nil {
		t.Fatal("want error on empty merge")
	}
}
