package sparse

import (
	"fmt"
	"math"
	"slices"

	"github.com/tree-svd/treesvd/internal/linalg"
)

// DynRow is a mutable row-sparse matrix whose columns are partitioned into
// contiguous blocks (the level-1 blocks of Tree-SVD). It maintains, per
// block j, two quantities needed by the lazy-update trigger (Eqn. 2 of the
// paper) in O(1) per entry update:
//
//   - ‖B_{1,j}^t‖²_F — the live squared Frobenius norm of the block, and
//   - ‖D_j‖²_F — the squared Frobenius norm of the delta between the live
//     block and its value at the block's last SVD rebuild (the baseline).
//
// Baselines are stored lazily: only entries touched since the last rebuild
// keep their baseline value, so memory overhead is proportional to churn,
// not to nnz. MarkRebuilt resets a block's baseline and recomputes its
// Frobenius norm exactly, purging incremental floating-point drift.
type DynRow struct {
	rows, cols int
	width      int // columns per block (last block may be narrower)
	nblocks    int

	// cells[r*nblocks+j] holds row r's entries inside block j in ascending
	// column order. Blocks are contiguous column ranges, so a row's cells
	// read in block order are globally sorted: ToCSR and BlockCSR append,
	// they never sort.
	cells []cell

	frobSq  []float64 // per block: Σ v², maintained incrementally
	deltaSq []float64 // per block: Σ (v − baseline)², maintained incrementally

	// base[j] maps packed (row,col) → value at last rebuild, only for
	// entries modified since that rebuild.
	base []map[int64]float64

	nnz      []int // per block live nnz
	totalNNZ int

	// frozen is the CSR the last ToCSR returned, and dirty[r] marks row r
	// as changed since then: the next ToCSR copies every clean row out of
	// frozen and gathers only the dirty ones from their cells.
	frozen *CSR
	dirty  []bool
}

// cell is one (row, block) intersection: parallel column/value slices,
// columns global and strictly ascending, no stored zeros. A cell is at
// most one block wide, so an insert or delete moves at most that many
// entries however large the row is.
type cell struct {
	cols []int32
	vals []float64
}

func (m *DynRow) cell(r, j int) *cell { return &m.cells[r*m.nblocks+j] }

// rowCells returns row r's cells in block order.
func (m *DynRow) rowCells(r int) []cell { return m.cells[r*m.nblocks : (r+1)*m.nblocks] }

// NewDynRow creates a rows×cols matrix partitioned into nblocks column
// blocks of near-equal width. The realized block count (NumBlocks) can be
// smaller than requested when cols < nblocks.
func NewDynRow(rows, cols, nblocks int) *DynRow {
	if rows < 0 || cols <= 0 || nblocks <= 0 {
		panic(fmt.Sprintf("sparse: NewDynRow invalid shape %d×%d / %d blocks", rows, cols, nblocks))
	}
	width, nb := blockLayout(cols, nblocks)
	m := &DynRow{
		rows: rows, cols: cols, width: width, nblocks: nb,
		cells:   make([]cell, rows*nb),
		frobSq:  make([]float64, nb),
		deltaSq: make([]float64, nb),
		base:    make([]map[int64]float64, nb),
		nnz:     make([]int, nb),
		dirty:   make([]bool, rows),
	}
	for j := range m.base {
		m.base[j] = make(map[int64]float64)
	}
	return m
}

// blockLayout returns the block width and the realized block count for
// cols columns split into at most nblocks near-equal blocks.
func blockLayout(cols, nblocks int) (width, nb int) {
	width = (cols + nblocks - 1) / nblocks
	return width, (cols + width - 1) / width
}

// Rows returns the number of rows.
func (m *DynRow) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *DynRow) Cols() int { return m.cols }

// NumBlocks returns the realized number of column blocks.
func (m *DynRow) NumBlocks() int { return m.nblocks }

// BlockOf returns the block index containing column c.
func (m *DynRow) BlockOf(c int) int { return c / m.width }

// BlockRange returns the half-open column range [lo,hi) of block j.
func (m *DynRow) BlockRange(j int) (lo, hi int) {
	lo = j * m.width
	hi = lo + m.width
	if hi > m.cols {
		hi = m.cols
	}
	return lo, hi
}

// NNZ returns the total number of stored entries.
func (m *DynRow) NNZ() int { return m.totalNNZ }

// BlockNNZ returns the number of stored entries in block j.
func (m *DynRow) BlockNNZ(j int) int { return m.nnz[j] }

// Get returns the (r,c) element.
func (m *DynRow) Get(r, c int) float64 {
	cl := m.cell(r, c/m.width)
	if i, ok := slices.BinarySearch(cl.cols, int32(c)); ok {
		return cl.vals[i]
	}
	return 0
}

func packKey(r, c int) int64 { return int64(r)<<32 | int64(int32(c)) }

// Set assigns the (r,c) element, updating block norm and delta tracking.
func (m *DynRow) Set(r, c int, v float64) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("sparse: Set (%d,%d) out of %d×%d", r, c, m.rows, m.cols))
	}
	j := c / m.width
	cl := m.cell(r, j)
	i, stored := slices.BinarySearch(cl.cols, int32(c))
	var old float64
	if stored {
		old = cl.vals[i]
	}
	if old == v {
		return
	}
	m.dirty[r] = true
	// Record the baseline the first time this entry moves after a rebuild.
	key := packKey(r, c)
	baseVal, seen := m.base[j][key]
	if !seen {
		baseVal = old
		m.base[j][key] = old
	}
	dOld := old - baseVal
	dNew := v - baseVal
	m.deltaSq[j] += dNew*dNew - dOld*dOld
	m.frobSq[j] += v*v - old*old
	switch {
	case v == 0:
		cl.cols = slices.Delete(cl.cols, i, i+1)
		cl.vals = slices.Delete(cl.vals, i, i+1)
		m.nnz[j]--
		m.totalNNZ--
	case stored:
		cl.vals[i] = v
	default:
		m.insert(cl, j, i, int32(c), v)
	}
}

// insert stores a new entry at position i of block j's cell cl.
func (m *DynRow) insert(cl *cell, j, i int, c int32, v float64) {
	cl.cols = slices.Insert(cl.cols, i, c)
	cl.vals = slices.Insert(cl.vals, i, v)
	m.nnz[j]++
	m.totalNNZ++
}

// BlockFrobNorm returns ‖B_{1,j}^t‖_F, the live Frobenius norm of block j.
func (m *DynRow) BlockFrobNorm(j int) float64 {
	f := m.frobSq[j]
	if f < 0 {
		f = 0 // incremental rounding
	}
	return math.Sqrt(f)
}

// DeltaFrobNorm returns ‖D_j‖_F, the Frobenius norm of the change of block
// j since its last rebuild.
func (m *DynRow) DeltaFrobNorm(j int) float64 {
	d := m.deltaSq[j]
	if d < 0 {
		d = 0
	}
	return math.Sqrt(d)
}

// MarkRebuilt resets block j's baseline to its current contents and
// recomputes its Frobenius norm exactly (purging incremental drift).
// Call it after recomputing the block's SVD.
func (m *DynRow) MarkRebuilt(j int) {
	m.base[j] = make(map[int64]float64)
	m.deltaSq[j] = 0
	var f float64
	for r := 0; r < m.rows; r++ {
		for _, v := range m.cell(r, j).vals {
			f += v * v
		}
	}
	m.frobSq[j] = f
}

// BlockCSR extracts block j as a CSR with columns rebased to start at 0.
func (m *DynRow) BlockCSR(j int) *CSR {
	lo, hi := m.BlockRange(j)
	out := &CSR{Rows: m.rows, Cols: hi - lo, RowPtr: make([]int32, m.rows+1)}
	out.ColIdx = make([]int32, 0, m.nnz[j])
	out.Val = make([]float64, 0, m.nnz[j])
	for r := 0; r < m.rows; r++ {
		cl := m.cell(r, j)
		for _, c := range cl.cols {
			out.ColIdx = append(out.ColIdx, c-int32(lo))
		}
		out.Val = append(out.Val, cl.vals...)
		out.RowPtr[r+1] = int32(len(out.Val))
	}
	return out
}

// RowColumns returns a copy of the columns with stored entries in row r,
// ascending.
func (m *DynRow) RowColumns(r int) []int32 {
	var out []int32
	for _, cl := range m.rowCells(r) {
		out = append(out, cl.cols...)
	}
	return out
}

// ToCSR materializes the whole matrix as a new CSR, which the caller may
// keep: later writes never touch it. Only rows written since the previous
// ToCSR are gathered from their cells; every run of unchanged rows is one
// copy out of the previous result, which holds them contiguously. The
// output is the same as a full gather's, bit for bit. ToCSR updates that
// bookkeeping, so like Set it must not run concurrently with other calls
// on m.
func (m *DynRow) ToCSR() *CSR { return m.ToCSRInto(nil) }

// ToCSRInto is ToCSR writing into the arrays of spare, a CSR of m's shape
// that nobody reads any more, when they are large enough; otherwise, or
// with a nil spare, it allocates, with an eighth of headroom so that a
// later spare still fits as nnz grows. spare must not be the CSR the last
// ToCSR returned: the clean rows are copied from it.
func (m *DynRow) ToCSRInto(spare *CSR) *CSR {
	nnz := m.totalNNZ
	out := &CSR{Rows: m.rows, Cols: m.cols}
	var colIdx []int32
	var val []float64
	if spare != nil && len(spare.RowPtr) == m.rows+1 && cap(spare.ColIdx) >= nnz && cap(spare.Val) >= nnz {
		out.RowPtr, colIdx, val = spare.RowPtr, spare.ColIdx[:0], spare.Val[:0]
	} else {
		out.RowPtr = make([]int32, m.rows+1)
		colIdx = make([]int32, 0, nnz+nnz/8)
		val = make([]float64, 0, nnz+nnz/8)
	}
	prev := m.frozen
	if spare != nil && spare == prev {
		panic("sparse: ToCSRInto reusing the CSR it copies clean rows from")
	}
	for r := 0; r < m.rows; {
		if prev != nil && !m.dirty[r] {
			end := r + 1
			for end < m.rows && !m.dirty[end] {
				end++
			}
			lo, hi := prev.RowPtr[r], prev.RowPtr[end]
			shift := int32(len(val)) - lo
			colIdx = append(colIdx, prev.ColIdx[lo:hi]...)
			val = append(val, prev.Val[lo:hi]...)
			for ; r < end; r++ {
				out.RowPtr[r+1] = prev.RowPtr[r+1] + shift
			}
			continue
		}
		row := m.rowCells(r)
		for i := range row {
			colIdx = append(colIdx, row[i].cols...)
			val = append(val, row[i].vals...)
		}
		m.dirty[r] = false
		r++
		out.RowPtr[r] = int32(len(val))
	}
	out.ColIdx, out.Val = colIdx, val
	m.frozen = out
	return out
}

// TMulDense returns mᵀ·b for a dense b (rows×k) directly from the live
// cells, sparing the O(nnz) copy a ToCSR would make first. Entries are
// visited in (row, column) order, so each output row c accumulates its
// contributions in ascending input-row order — the same sums, in the same
// order, as ToCSR().TMulDenseW(b, 1).
func (m *DynRow) TMulDense(b *linalg.Dense) *linalg.Dense {
	if b.Rows != m.rows {
		panic(fmt.Sprintf("sparse: TMulDense shape mismatch (%d×%d)ᵀ · %d×%d", m.rows, m.cols, b.Rows, b.Cols))
	}
	out := linalg.NewDense(m.cols, b.Cols)
	for r := 0; r < m.rows; r++ {
		brow := b.Row(r)
		for _, cl := range m.rowCells(r) {
			for i, c := range cl.cols {
				linalg.Axpy(out.Row(int(c)), cl.vals[i], brow)
			}
		}
	}
	return out
}

// FrobNorm returns the Frobenius norm of the whole matrix.
func (m *DynRow) FrobNorm() float64 {
	var f float64
	for _, v := range m.frobSq {
		if v > 0 {
			f += v
		}
	}
	return math.Sqrt(f)
}

// BaselineBlockCSR reconstructs block j as it stood at its last rebuild
// (the baseline the delta bookkeeping measures against): live entries,
// with every entry touched since the rebuild restored to its recorded
// baseline value (a zero baseline means the entry did not exist then).
// Used by the correctness harness to re-factor a block at its recorded
// seed and compare against the cached factorization.
func (m *DynRow) BaselineBlockCSR(j int) *CSR {
	lo, hi := m.BlockRange(j)
	out := &CSR{Rows: m.rows, Cols: hi - lo, RowPtr: make([]int32, m.rows+1)}
	emit := func(c int32, v float64) {
		if v != 0 {
			out.ColIdx = append(out.ColIdx, c-int32(lo))
			out.Val = append(out.Val, v)
		}
	}
	// Merge each row's live cell with the row's run of baseline keys; both
	// ascend by column, and a baseline value overrides the live one.
	keys := m.sortedBaseKeys(j)
	for r := 0; r < m.rows; r++ {
		cl := m.cell(r, j)
		i := 0
		for ; len(keys) > 0 && int(keys[0]>>32) == r; keys = keys[1:] {
			c := int32(keys[0])
			for ; i < len(cl.cols) && cl.cols[i] < c; i++ {
				emit(cl.cols[i], cl.vals[i])
			}
			if i < len(cl.cols) && cl.cols[i] == c {
				i++
			}
			emit(c, m.base[j][keys[0]])
		}
		for ; i < len(cl.cols); i++ {
			emit(cl.cols[i], cl.vals[i])
		}
		out.RowPtr[r+1] = int32(len(out.Val))
	}
	return out
}

// sortedBaseKeys returns block j's baseline keys ascending, which is
// (row, column) order: the row sits in the high half of a packed key.
func (m *DynRow) sortedBaseKeys(j int) []int64 {
	keys := make([]int64, 0, len(m.base[j]))
	for key := range m.base[j] {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

// AuditRecount verifies the incrementally maintained bookkeeping against
// an exact recount: per-block squared Frobenius norm, squared delta norm,
// nnz counters, baseline key validity, and the storage invariants (every
// cell strictly ascending inside its block, no stored zero or NaN).
// Floating-point accumulators are compared within a scale-aware tolerance;
// the integer counters must match exactly. The maintained quantities feed
// the Eqn. 2 lazy-update trigger, so drift here silently turns into missed
// (or spurious) block rebuilds. O(nnz): the correctness harness,
// Embedder.Audit, Load and DecodeDynRow run it, hot paths do not.
func (m *DynRow) AuditRecount() error {
	const tol = 1e-7
	total := 0
	for j := 0; j < m.nblocks; j++ {
		lo, hi := m.BlockRange(j)
		var frob float64
		nnz := 0
		for r := 0; r < m.rows; r++ {
			cl := m.cell(r, j)
			if len(cl.cols) != len(cl.vals) {
				return fmt.Errorf("sparse: audit: row %d block %d holds %d columns but %d values", r, j, len(cl.cols), len(cl.vals))
			}
			for i, c := range cl.cols {
				v := cl.vals[i]
				switch {
				case int(c) < lo || int(c) >= hi:
					return fmt.Errorf("sparse: audit: entry (%d,%d) stored in block %d [%d,%d)", r, c, j, lo, hi)
				case i > 0 && cl.cols[i-1] >= c:
					return fmt.Errorf("sparse: audit: row %d block %d out of order: column %d follows %d", r, j, c, cl.cols[i-1])
				case v == 0:
					return fmt.Errorf("sparse: audit: stored zero at (%d,%d)", r, c)
				case math.IsNaN(v) || math.IsInf(v, 0):
					return fmt.Errorf("sparse: audit: non-finite value %g at (%d,%d)", v, r, c)
				}
				frob += v * v
				nnz++
			}
		}
		var delta float64
		for key, bv := range m.base[j] {
			r, c := int(key>>32), int(int32(key))
			if r < 0 || r >= m.rows || c < lo || c >= hi {
				return fmt.Errorf("sparse: audit: baseline key (%d,%d) outside block %d of %d×%d", r, c, j, m.rows, m.cols)
			}
			if math.IsNaN(bv) || math.IsInf(bv, 0) {
				return fmt.Errorf("sparse: audit: non-finite baseline %g at (%d,%d)", bv, r, c)
			}
			d := m.Get(r, c) - bv
			delta += d * d
		}
		if nnz != m.nnz[j] {
			return fmt.Errorf("sparse: audit: block %d nnz counter %d, recount %d", j, m.nnz[j], nnz)
		}
		if got := m.frobSq[j]; !(math.Abs(got-frob) <= tol*(1+frob)) { // negated: a NaN must fail
			return fmt.Errorf("sparse: audit: block %d frobSq drifted: maintained %g, recount %g", j, got, frob)
		}
		if got := m.deltaSq[j]; !(math.Abs(got-delta) <= tol*(1+delta)) {
			return fmt.Errorf("sparse: audit: block %d deltaSq drifted: maintained %g, recount %g", j, got, delta)
		}
		total += nnz
	}
	if total != m.totalNNZ {
		return fmt.Errorf("sparse: audit: total nnz counter %d, recount %d", m.totalNNZ, total)
	}
	return nil
}

// ToDense materializes densely (tests only).
func (m *DynRow) ToDense() *linalg.Dense {
	out := linalg.NewDense(m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		row := out.Row(r)
		for _, cl := range m.rowCells(r) {
			for i, c := range cl.cols {
				row[c] = cl.vals[i]
			}
		}
	}
	return out
}
