package sparse

import (
	"fmt"
	"slices"

	"github.com/tree-svd/treesvd/internal/column"
)

// A DynRow's saved form holds its shape, its entries in (row, column)
// order, and the per-block lazy-update bookkeeping (squared norms,
// baselines in key order) that must survive a save/load for Eqn. 2
// triggers to stay exact. Equal matrices encode to equal bytes. The
// layout, in column's little-endian form:
//
//	int32 Rows | int32 Cols | int32 Blocks | EntryRow | EntryCol | EntryVal |
//	FrobSq | DeltaSq | count, then BaseKeys per block | count, then BaseVals per block
//
// dynRowCols is that layout decoded, before any check.
type dynRowCols struct {
	Rows, Cols, Blocks int32
	EntryRow           []int32
	EntryCol           []int32
	EntryVal           []float64
	FrobSq             []float64
	DeltaSq            []float64
	BaseKeys           [][]int64
	BaseVals           [][]float64
}

// maxDecodeCells bounds rows×blocks of a decoded matrix, so a corrupt
// shape is an error instead of an allocation the process cannot survive.
const maxDecodeCells = 1 << 26

// EncodedLen is the size of the matrix's saved form.
func (m *DynRow) EncodedLen() int {
	n := 12 + column.Int32sLen(m.totalNNZ)*2 + column.Float64sLen(m.totalNNZ) +
		2*column.Float64sLen(m.nblocks) + 2*column.CountLen
	for _, base := range m.base {
		n += column.Int64sLen(len(base)) + column.Float64sLen(len(base))
	}
	return n
}

// AppendEncoded appends the matrix's saved form to b.
func (m *DynRow) AppendEncoded(b []byte) []byte {
	// One growth up front: the entry columns are filled after all three
	// are reserved, so none may move the buffer.
	b = slices.Grow(b, m.EncodedLen())
	for _, v := range []int{m.rows, m.cols, m.nblocks} {
		b = column.AppendUint32(b, uint32(v))
	}
	b, rows := column.Reserve(b, m.totalNNZ, 4)
	b, cols := column.Reserve(b, m.totalNNZ, 4)
	b, vals := column.Reserve(b, m.totalNNZ, 8)
	i := 0
	for r := 0; r < m.rows; r++ {
		for _, cl := range m.rowCells(r) {
			for k, c := range cl.cols {
				column.PutInt32(rows, i, int32(r))
				column.PutInt32(cols, i, c)
				column.PutFloat64(vals, i, cl.vals[k])
				i++
			}
		}
	}
	b = column.AppendFloat64s(b, m.frobSq)
	b = column.AppendFloat64s(b, m.deltaSq)
	keys := make([][]int64, m.nblocks)
	b = column.AppendUint64(b, uint64(m.nblocks))
	for j := range keys {
		keys[j] = m.sortedBaseKeys(j)
		b = column.AppendInt64s(b, keys[j])
	}
	b = column.AppendUint64(b, uint64(m.nblocks))
	for j, ks := range keys {
		var vals []byte
		b, vals = column.Reserve(b, len(ks), 8)
		for i, k := range ks {
			column.PutFloat64(vals, i, m.base[j][k])
		}
	}
	return b
}

// readDynRowCols reads the saved layout without checking it.
func readDynRowCols(data []byte) (dynRowCols, error) {
	r := column.NewReader(data)
	w := dynRowCols{Rows: r.Int32(), Cols: r.Int32(), Blocks: r.Int32(),
		EntryRow: r.Int32s(), EntryCol: r.Int32s(), EntryVal: r.Float64s(),
		FrobSq: r.Float64s(), DeltaSq: r.Float64s()}
	w.BaseKeys = make([][]int64, r.Count(column.CountLen))
	for j := range w.BaseKeys {
		w.BaseKeys[j] = r.Int64s()
	}
	w.BaseVals = make([][]float64, r.Count(column.CountLen))
	for j := range w.BaseVals {
		w.BaseVals[j] = r.Float64s()
	}
	return w, r.Done()
}

// DecodeDynRow restores a matrix from its saved form. The bytes are not
// trusted: every shape, length, index and value is validated before it is
// used, and the restored bookkeeping must pass AuditRecount, so a decode
// either returns an error or a consistent matrix — it never panics.
// Entries may arrive in any order.
func DecodeDynRow(data []byte) (*DynRow, error) {
	w, err := readDynRowCols(data)
	if err != nil {
		return nil, fmt.Errorf("sparse: decode: %w", err)
	}
	rows, cols, blocks, n := int(w.Rows), int(w.Cols), int(w.Blocks), len(w.EntryRow)
	switch {
	case rows < 0 || cols <= 0 || blocks <= 0 || blocks > cols:
		return nil, fmt.Errorf("sparse: decode: invalid shape %d×%d / %d blocks", rows, cols, blocks)
	case rows > maxDecodeCells/blocks:
		return nil, fmt.Errorf("sparse: decode: shape %d×%d / %d blocks exceeds %d cells", rows, cols, blocks, maxDecodeCells)
	case len(w.EntryCol) != n || len(w.EntryVal) != n:
		return nil, fmt.Errorf("sparse: decode: entry columns of %d rows, %d columns, %d values", n, len(w.EntryCol), len(w.EntryVal))
	}
	for i, r := range w.EntryRow {
		if c := w.EntryCol[i]; r < 0 || int(r) >= rows || c < 0 || int(c) >= cols {
			return nil, fmt.Errorf("sparse: decode: entry (%d,%d) outside %d×%d", r, c, rows, cols)
		}
	}
	if _, nb := blockLayout(cols, blocks); len(w.FrobSq) != nb || len(w.DeltaSq) != nb || len(w.BaseKeys) != nb || len(w.BaseVals) != nb {
		return nil, fmt.Errorf("sparse: decode: bookkeeping for %d/%d/%d/%d blocks, matrix has %d",
			len(w.FrobSq), len(w.DeltaSq), len(w.BaseKeys), len(w.BaseVals), nb)
	}
	for j, keys := range w.BaseKeys {
		if len(w.BaseVals[j]) != len(keys) {
			return nil, fmt.Errorf("sparse: decode: block %d has %d baseline keys but %d values", j, len(keys), len(w.BaseVals[j]))
		}
	}
	dec := NewDynRow(rows, cols, blocks)
	// Raw insert (no delta tracking — bookkeeping is restored verbatim
	// below); the nnz counters count what was actually inserted.
	for i, r := range w.EntryRow {
		c := w.EntryCol[i]
		j := dec.BlockOf(int(c))
		cl := dec.cell(int(r), j)
		at, dup := slices.BinarySearch(cl.cols, c)
		if dup {
			return nil, fmt.Errorf("sparse: decode: entry (%d,%d) stored twice", r, c)
		}
		dec.insert(cl, j, at, c, w.EntryVal[i])
	}
	copy(dec.frobSq, w.FrobSq)
	copy(dec.deltaSq, w.DeltaSq)
	for j, keys := range w.BaseKeys {
		for i, k := range keys {
			if _, dup := dec.base[j][k]; dup {
				return nil, fmt.Errorf("sparse: decode: block %d baseline key %d stored twice", j, k)
			}
			dec.base[j][k] = w.BaseVals[j][i]
		}
	}
	// No stored zero or NaN, baseline keys inside their block, norms that
	// match the contents.
	if err := dec.AuditRecount(); err != nil {
		return nil, fmt.Errorf("sparse: decode: %w", err)
	}
	return dec, nil
}
