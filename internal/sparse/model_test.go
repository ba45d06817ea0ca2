package sparse

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
)

// dynRowModel is the obviously-correct twin of a DynRow: the live entries
// and, per block, the contents at the block's last MarkRebuilt.
type dynRowModel struct {
	rows, cols int
	live       map[[2]int]float64
	base       []map[[2]int]float64 // per block
}

func newDynRowModel(m *DynRow) *dynRowModel {
	mod := &dynRowModel{rows: m.Rows(), cols: m.Cols(), live: map[[2]int]float64{}}
	for j := 0; j < m.NumBlocks(); j++ {
		mod.base = append(mod.base, map[[2]int]float64{})
	}
	return mod
}

func (mod *dynRowModel) set(r, c int, v float64) {
	if v == 0 {
		delete(mod.live, [2]int{r, c})
	} else {
		mod.live[[2]int{r, c}] = v
	}
}

func (mod *dynRowModel) markRebuilt(m *DynRow, j int) {
	lo, hi := m.BlockRange(j)
	mod.base[j] = map[[2]int]float64{}
	for k, v := range mod.live {
		if k[1] >= lo && k[1] < hi {
			mod.base[j][k] = v
		}
	}
}

// csrOf lays entries with columns in [lo,hi) out as a CSR rebased to lo.
func (mod *dynRowModel) csrOf(entries map[[2]int]float64, lo, hi int) *CSR {
	b := NewBuilder(mod.rows, hi-lo)
	for k, v := range entries {
		if k[1] >= lo && k[1] < hi {
			b.Add(k[0], k[1]-lo, v)
		}
	}
	return b.Build()
}

func equalCSR(a, b *CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
		slices.Equal(a.ColIdx, b.ColIdx) && slices.Equal(a.Val, b.Val)
}

// check compares every read of m against the model.
func (mod *dynRowModel) check(m *DynRow, rng *rand.Rand) error {
	if m.NNZ() != len(mod.live) {
		return fmt.Errorf("NNZ %d, model %d", m.NNZ(), len(mod.live))
	}
	for r := 0; r < mod.rows; r++ {
		var want []int32
		for c := 0; c < mod.cols; c++ {
			v := mod.live[[2]int{r, c}]
			if got := m.Get(r, c); got != v {
				return fmt.Errorf("Get(%d,%d) = %g, model %g", r, c, got, v)
			}
			if v != 0 {
				want = append(want, int32(c))
			}
		}
		got := m.RowColumns(r)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			return fmt.Errorf("RowColumns(%d) = %v, model %v", r, got, want)
		}
	}
	full := m.ToCSR()
	if !equalCSR(full, mod.csrOf(mod.live, 0, mod.cols)) {
		return fmt.Errorf("ToCSR differs from model")
	}
	for j := 0; j < m.NumBlocks(); j++ {
		lo, hi := m.BlockRange(j)
		live := mod.csrOf(mod.live, lo, hi)
		if m.BlockNNZ(j) != live.NNZ() {
			return fmt.Errorf("BlockNNZ(%d) = %d, model %d", j, m.BlockNNZ(j), live.NNZ())
		}
		if !equalCSR(m.BlockCSR(j), live) {
			return fmt.Errorf("BlockCSR(%d) differs from model", j)
		}
		if !equalCSR(m.BaselineBlockCSR(j), mod.csrOf(mod.base[j], lo, hi)) {
			return fmt.Errorf("BaselineBlockCSR(%d) differs from model", j)
		}
	}
	b := linalg.NewDense(mod.rows, 3)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	if diff := linalg.MaxAbsDiff(m.TMulDense(b), full.TMulDenseW(b, 1)); diff != 0 {
		return fmt.Errorf("TMulDense differs from ToCSR().TMulDenseW by %g", diff)
	}
	return m.AuditRecount()
}

// TestDynRowMatchesModel drives random Set sequences — inserts,
// overwrites, deletes by zero, repeats, MarkRebuilt in between — and after
// every step compares every read the DynRow offers with a plain map.
func TestDynRowMatchesModel(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 400
	}
	shapes := map[string][3]int{
		"one block":            {5, 12, 1},
		"fewer cols than asks": {4, 3, 8},
		"narrow last block":    {6, 10, 4}, // widths 3,3,3,1
		"even blocks":          {7, 40, 5},
	}
	for name, sh := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh[0]*1000 + sh[1])))
			m := NewDynRow(sh[0], sh[1], sh[2])
			mod := newDynRowModel(m)
			var lastR, lastC int
			var lastV float64
			for step := 0; step < steps; step++ {
				r, c, v := rng.Intn(sh[0]), rng.Intn(sh[1]), rng.NormFloat64()
				switch p := rng.Float64(); {
				case p < 0.25:
					v = 0 // delete, often of nothing
				case p < 0.35:
					r, c, v = lastR, lastC, lastV // exact repeat
				case p < 0.40:
					j := rng.Intn(m.NumBlocks())
					m.MarkRebuilt(j)
					mod.markRebuilt(m, j)
				}
				m.Set(r, c, v)
				mod.set(r, c, v)
				lastR, lastC, lastV = r, c, v
				if err := mod.check(m, rng); err != nil {
					t.Fatalf("step %d, after Set(%d,%d,%g): %v", step, r, c, v, err)
				}
			}
		})
	}
}

func cloneCSR(a *CSR) *CSR {
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: slices.Clone(a.RowPtr),
		ColIdx: slices.Clone(a.ColIdx), Val: slices.Clone(a.Val)}
}

// TestDynRowToCSRIncremental runs 0–8 random writes between ToCSR calls —
// overwrites, deletes to zero, inserts, same-value no-ops — with
// MarkRebuilt mixed in and one gob round trip mid-stream. Every ToCSR must
// equal the model's CSR, and every CSR returned earlier must still equal
// the copy taken when it was returned: ToCSR copies unchanged rows out of
// its previous result, and a published matrix must never be aliased.
func TestDynRowToCSRIncremental(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 120
	}
	shapes := map[string][3]int{
		"one block":         {5, 12, 1},
		"narrow last block": {6, 10, 4},
		"even blocks":       {9, 40, 5},
	}
	for name, sh := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh[0]*1000 + sh[1])))
			m := NewDynRow(sh[0], sh[1], sh[2])
			mod := newDynRowModel(m)
			var returned, copies []*CSR
			for step := 0; step < steps; step++ {
				for w := rng.Intn(9); w > 0; w-- {
					r, c, v := rng.Intn(sh[0]), rng.Intn(sh[1]), rng.NormFloat64()
					if stored := m.RowColumns(r); len(stored) > 0 && rng.Intn(4) > 0 {
						c = int(stored[rng.Intn(len(stored))])
						switch rng.Intn(3) {
						case 0:
							v = 0
						case 1:
							v = m.Get(r, c)
						}
					}
					m.Set(r, c, v)
					mod.set(r, c, v)
				}
				if rng.Intn(10) == 0 {
					j := rng.Intn(m.NumBlocks())
					m.MarkRebuilt(j)
					mod.markRebuilt(m, j)
				}
				if step == steps/2 {
					data, err := m.GobEncode()
					if err != nil {
						t.Fatal(err)
					}
					m = &DynRow{}
					if err := m.GobDecode(data); err != nil {
						t.Fatal(err)
					}
				}
				got := m.ToCSR()
				if !equalCSR(got, mod.csrOf(mod.live, 0, mod.cols)) {
					t.Fatalf("step %d: ToCSR differs from the model", step)
				}
				returned, copies = append(returned, got), append(copies, cloneCSR(got))
				for i := range returned {
					if !equalCSR(returned[i], copies[i]) {
						t.Fatalf("step %d: the CSR returned at step %d changed after it was returned", step, i)
					}
				}
			}
		})
	}
}

// benchDynRow is the benchmark's proximity matrix in shape and fill:
// 128×9 000 in 64 blocks, ~15.7 k entries.
func benchDynRow() *DynRow {
	rng := rand.New(rand.NewSource(1))
	m := NewDynRow(128, 9000, 64)
	for m.NNZ() < 15700 {
		m.Set(rng.Intn(128), rng.Intn(9000), rng.Float64())
	}
	return m
}

// BenchmarkDynRowToCSR freezes the matrix after every row changed
// (changed=all: what the first publish and a large batch pay) and after 6
// rows changed (what a 4-event batch changes on the benchmark's stream).
// The writes run outside the timer.
func BenchmarkDynRowToCSR(b *testing.B) {
	for _, bc := range []struct {
		name    string
		changed int
	}{{"changed=all", 128}, {"changed=6", 6}} {
		b.Run(bc.name, func(b *testing.B) {
			m := benchDynRow()
			m.ToCSR()
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, r := range rng.Perm(m.Rows())[:bc.changed] {
					cols := m.RowColumns(r)
					m.Set(r, int(cols[rng.Intn(len(cols))]), rng.Float64()+1)
				}
				b.StartTimer()
				m.ToCSR()
			}
		})
	}
}

// BenchmarkDynRowSet is one batch's worth of repair writes: overwrite,
// delete and re-insert spread over the matrix.
func BenchmarkDynRowSet(b *testing.B) {
	m := benchDynRow()
	rng := rand.New(rand.NewSource(2))
	rs, cs := make([]int, 1024), make([]int, 1024)
	for i := range rs {
		rs[i], cs[i] = rng.Intn(128), rng.Intn(9000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(rs)
		m.Set(rs[k], cs[k], float64(i%3)) // every third write deletes
	}
}
