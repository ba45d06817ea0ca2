package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// churnedDynRow builds a DynRow through a deterministic mix of inserts,
// overwrites, deletions (Set to 0), and per-block rebuild points — the
// update pattern whose incremental frobSq/deltaSq bookkeeping
// AuditRecount exists to cross-check.
func churnedDynRow(t *testing.T, seed int64) *DynRow {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := NewDynRow(6, 40, 5)
	for i := 0; i < 400; i++ {
		r, c := rng.Intn(6), rng.Intn(40)
		switch rng.Intn(4) {
		case 0:
			m.Set(r, c, 0) // delete (often a no-op)
		default:
			m.Set(r, c, rng.NormFloat64())
		}
		if i%97 == 0 {
			m.MarkRebuilt(rng.Intn(m.NumBlocks()))
		}
	}
	return m
}

// firstEntry returns the first non-empty cell of block j.
func firstEntry(t *testing.T, m *DynRow, j int) *cell {
	t.Helper()
	for r := 0; r < m.rows; r++ {
		if cl := m.cell(r, j); len(cl.cols) > 0 {
			return cl
		}
	}
	t.Fatalf("block %d is empty", j)
	return nil
}

// pairCell returns the first cell holding at least two entries.
func pairCell(t *testing.T, m *DynRow) *cell {
	t.Helper()
	for i := range m.cells {
		if cl := &m.cells[i]; len(cl.cols) >= 2 {
			return cl
		}
	}
	t.Fatal("no cell with two entries")
	return nil
}

func TestAuditRecountClean(t *testing.T) {
	m := churnedDynRow(t, 1)
	if err := m.AuditRecount(); err != nil {
		t.Fatalf("healthy matrix failed audit: %v", err)
	}
}

// TestAuditRecountDetectsCorruption plants one inconsistency at a time in
// the maintained bookkeeping and requires the audit to name it.
func TestAuditRecountDetectsCorruption(t *testing.T) {
	cases := map[string]struct {
		mutate func(*DynRow)
		want   string
	}{
		"frobSq drift": {
			func(m *DynRow) { m.frobSq[1] += 0.5 },
			"frobSq",
		},
		"deltaSq drift": {
			func(m *DynRow) { m.deltaSq[2] -= 0.25 },
			"deltaSq",
		},
		"nnz miscount": {
			func(m *DynRow) { m.nnz[0]++ },
			"nnz",
		},
		"total nnz miscount": {
			func(m *DynRow) { m.totalNNZ-- },
			"total nnz",
		},
		"stored zero": {
			func(m *DynRow) { firstEntry(t, m, 1).vals[0] = 0 },
			"stored zero",
		},
		"non-finite entry": {
			func(m *DynRow) { firstEntry(t, m, 1).vals[0] = math.NaN() },
			"non-finite",
		},
		"entry outside block range": {
			func(m *DynRow) { firstEntry(t, m, 1).cols[0] = 0 },
			"stored in block",
		},
		"cell out of order": {
			func(m *DynRow) {
				cl := pairCell(t, m)
				cl.cols[0], cl.cols[1] = cl.cols[1], cl.cols[0]
			},
			"out of order",
		},
		"duplicate column in a cell": {
			func(m *DynRow) {
				cl := pairCell(t, m)
				cl.cols[1] = cl.cols[0]
			},
			"out of order",
		},
		"baseline key outside matrix": {
			func(m *DynRow) { m.base[1][int64(99)<<32|int64(uint32(9))] = 1 },
			"baseline",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			m := churnedDynRow(t, 2)
			tc.mutate(m)
			err := m.AuditRecount()
			if err == nil {
				t.Fatalf("corruption went undetected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBaselineBlockCSRReconstructsRebuildState verifies that the baseline
// view really is the block as of its last MarkRebuilt: values written
// after the rebuild must not leak into it, values deleted after the
// rebuild must still appear.
func TestBaselineBlockCSRReconstructsRebuildState(t *testing.T) {
	m := NewDynRow(3, 20, 4) // blocks of width 5
	m.Set(0, 0, 1.0)
	m.Set(1, 2, 2.0)
	m.Set(2, 4, 3.0)
	m.MarkRebuilt(0)
	m.Set(0, 0, 9.0) // overwrite after rebuild
	m.Set(1, 2, 0)   // delete after rebuild
	m.Set(2, 3, 7.0) // insert after rebuild

	base := m.BaselineBlockCSR(0)
	want := map[[2]int]float64{{0, 0}: 1.0, {1, 2}: 2.0, {2, 4}: 3.0}
	got := map[[2]int]float64{}
	for r := 0; r < base.Rows; r++ {
		for i := base.RowPtr[r]; i < base.RowPtr[r+1]; i++ {
			got[[2]int{r, int(base.ColIdx[i])}] = base.Val[i]
		}
	}
	if len(got) != len(want) {
		t.Fatalf("baseline has %d entries, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("baseline entry %v = %g, want %g", k, got[k], v)
		}
	}

	// Live view must show the post-rebuild state instead.
	live := m.BlockCSR(0)
	if live.NNZ() != 3 { // (0,0)=9, (2,3)=7, (2,4)=3
		t.Fatalf("live block nnz %d, want 3", live.NNZ())
	}
}
