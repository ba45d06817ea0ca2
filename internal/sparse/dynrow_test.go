package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tree-svd/treesvd/internal/linalg"
)

func TestDynRowBlockLayout(t *testing.T) {
	m := NewDynRow(3, 100, 8)
	if m.NumBlocks() != 8 {
		t.Fatalf("NumBlocks = %d, want 8", m.NumBlocks())
	}
	seen := 0
	for j := 0; j < m.NumBlocks(); j++ {
		lo, hi := m.BlockRange(j)
		if lo != seen {
			t.Fatalf("block %d starts at %d, want %d", j, lo, seen)
		}
		for c := lo; c < hi; c++ {
			if m.BlockOf(c) != j {
				t.Fatalf("BlockOf(%d) = %d, want %d", c, m.BlockOf(c), j)
			}
		}
		seen = hi
	}
	if seen != 100 {
		t.Fatalf("blocks cover %d cols, want 100", seen)
	}
}

func TestDynRowRaggedLastBlock(t *testing.T) {
	m := NewDynRow(2, 10, 4) // width 3 → blocks of 3,3,3,1
	lo, hi := m.BlockRange(3)
	if lo != 9 || hi != 10 {
		t.Fatalf("last block [%d,%d), want [9,10)", lo, hi)
	}
}

func TestDynRowSetGet(t *testing.T) {
	m := NewDynRow(4, 12, 3)
	m.Set(1, 5, 2.5)
	m.Set(3, 11, -1)
	if m.Get(1, 5) != 2.5 || m.Get(3, 11) != -1 || m.Get(0, 0) != 0 {
		t.Fatal("Set/Get mismatch")
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	m.Set(1, 5, 0) // delete
	if m.Get(1, 5) != 0 || m.NNZ() != 1 {
		t.Fatal("delete via Set(0) failed")
	}
}

func TestDynRowFrobTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewDynRow(5, 20, 4)
	// Random churn including overwrites and deletions.
	for step := 0; step < 500; step++ {
		r := rng.Intn(5)
		c := rng.Intn(20)
		var v float64
		if rng.Float64() < 0.2 {
			v = 0
		} else {
			v = rng.NormFloat64()
		}
		m.Set(r, c, v)
	}
	d := m.ToDense()
	for j := 0; j < m.NumBlocks(); j++ {
		lo, hi := m.BlockRange(j)
		want := d.SliceCols(lo, hi).FrobNorm()
		if diff := math.Abs(m.BlockFrobNorm(j) - want); diff > 1e-9 {
			t.Fatalf("block %d FrobNorm %g, want %g", j, m.BlockFrobNorm(j), want)
		}
	}
	if diff := math.Abs(m.FrobNorm() - d.FrobNorm()); diff > 1e-9 {
		t.Fatalf("total FrobNorm %g, want %g", m.FrobNorm(), d.FrobNorm())
	}
}

func TestDynRowDeltaTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewDynRow(4, 16, 4)
	for step := 0; step < 100; step++ {
		m.Set(rng.Intn(4), rng.Intn(16), rng.NormFloat64())
	}
	// Take the baseline snapshot for every block.
	base := m.ToDense()
	for j := 0; j < m.NumBlocks(); j++ {
		m.MarkRebuilt(j)
		if m.DeltaFrobNorm(j) != 0 {
			t.Fatalf("block %d delta non-zero after rebuild", j)
		}
	}
	// Churn again, including entries that return exactly to baseline.
	for step := 0; step < 200; step++ {
		r, c := rng.Intn(4), rng.Intn(16)
		if rng.Float64() < 0.3 {
			m.Set(r, c, base.At(r, c)) // revert to baseline
		} else {
			m.Set(r, c, rng.NormFloat64())
		}
	}
	cur := m.ToDense()
	diff := linalg.Sub(cur, base)
	for j := 0; j < m.NumBlocks(); j++ {
		lo, hi := m.BlockRange(j)
		want := diff.SliceCols(lo, hi).FrobNorm()
		if d := math.Abs(m.DeltaFrobNorm(j) - want); d > 1e-9 {
			t.Fatalf("block %d delta %g, want %g", j, m.DeltaFrobNorm(j), want)
		}
	}
}

func TestDynRowRevertClearsNothing(t *testing.T) {
	// An entry set away from and back to its baseline contributes zero
	// delta.
	m := NewDynRow(1, 4, 2)
	m.Set(0, 0, 1)
	m.MarkRebuilt(0)
	m.MarkRebuilt(1)
	m.Set(0, 0, 2)
	m.Set(0, 0, 1)
	if m.DeltaFrobNorm(0) > 1e-12 {
		t.Fatalf("delta after revert = %g, want 0", m.DeltaFrobNorm(0))
	}
}

func TestDynRowBlockCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewDynRow(6, 25, 4)
	for step := 0; step < 80; step++ {
		m.Set(rng.Intn(6), rng.Intn(25), rng.NormFloat64())
	}
	d := m.ToDense()
	for j := 0; j < m.NumBlocks(); j++ {
		lo, hi := m.BlockRange(j)
		blk := m.BlockCSR(j)
		if blk.Rows != 6 || blk.Cols != hi-lo {
			t.Fatalf("block %d shape %d×%d", j, blk.Rows, blk.Cols)
		}
		if diff := linalg.MaxAbsDiff(blk.ToDense(), d.SliceCols(lo, hi)); diff > 0 {
			t.Fatalf("block %d CSR mismatch %g", j, diff)
		}
		// Column indices sorted per row.
		for r := 0; r < blk.Rows; r++ {
			for p := blk.RowPtr[r] + 1; p < blk.RowPtr[r+1]; p++ {
				if blk.ColIdx[p-1] >= blk.ColIdx[p] {
					t.Fatalf("block %d row %d unsorted", j, r)
				}
			}
		}
	}
}

func TestDynRowToCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewDynRow(5, 17, 3)
	for step := 0; step < 60; step++ {
		m.Set(rng.Intn(5), rng.Intn(17), rng.NormFloat64())
	}
	if diff := linalg.MaxAbsDiff(m.ToCSR().ToDense(), m.ToDense()); diff > 0 {
		t.Fatalf("ToCSR mismatch %g", diff)
	}
	if m.ToCSR().NNZ() != m.NNZ() {
		t.Fatal("nnz mismatch")
	}
}

func TestDynRowNNZPerBlock(t *testing.T) {
	m := NewDynRow(2, 8, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 1)
	m.Set(1, 5, 1)
	if m.BlockNNZ(0) != 2 || m.BlockNNZ(1) != 1 {
		t.Fatalf("block nnz = %d,%d want 2,1", m.BlockNNZ(0), m.BlockNNZ(1))
	}
	m.Set(0, 1, 0)
	if m.BlockNNZ(0) != 1 {
		t.Fatalf("block nnz after delete = %d, want 1", m.BlockNNZ(0))
	}
}

func TestDynRowPropertyFrobMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(6)
		cols := 2 + rng.Intn(30)
		nb := 1 + rng.Intn(6)
		m := NewDynRow(rows, cols, nb)
		for step := 0; step < 150; step++ {
			v := rng.NormFloat64()
			if rng.Float64() < 0.25 {
				v = 0
			}
			m.Set(rng.Intn(rows), rng.Intn(cols), v)
			if rng.Float64() < 0.02 {
				m.MarkRebuilt(rng.Intn(m.NumBlocks()))
			}
		}
		// Incremental ± accumulation leaves O(ε)·Σ|v²| residue in the
		// squared norm; after exact cancellation to zero the sqrt
		// amplifies it to ~1e-8, so compare with a scale-aware tolerance.
		want := m.ToDense().FrobNorm()
		return math.Abs(m.FrobNorm()-want) < 1e-7*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
