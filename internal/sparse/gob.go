package sparse

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
)

// gobDynRow is the wire form of a DynRow: shape, entries in (row, column)
// order, and the per-block lazy-update bookkeeping (baselines in key
// order, squared norms) that must survive a save/load for Eqn. 2 triggers
// to stay exact. Equal matrices encode to equal bytes.
type gobDynRow struct {
	Rows, Cols, Blocks int
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

// GobEncode implements gob.GobEncoder.
func (m *DynRow) GobEncode() ([]byte, error) {
	wire := gobDynRow{
		Rows: m.rows, Cols: m.cols, Blocks: m.nblocks,
		EntryRow: make([]int32, 0, m.totalNNZ),
		EntryCol: make([]int32, 0, m.totalNNZ),
		EntryVal: make([]float64, 0, m.totalNNZ),
		FrobSq:   append([]float64(nil), m.frobSq...),
		DeltaSq:  append([]float64(nil), m.deltaSq...),
		BaseKeys: make([][]int64, m.nblocks),
		BaseVals: make([][]float64, m.nblocks),
	}
	for r := 0; r < m.rows; r++ {
		for _, cl := range m.rowCells(r) {
			for range cl.cols {
				wire.EntryRow = append(wire.EntryRow, int32(r))
			}
			wire.EntryCol = append(wire.EntryCol, cl.cols...)
			wire.EntryVal = append(wire.EntryVal, cl.vals...)
		}
	}
	for j := 0; j < m.nblocks; j++ {
		wire.BaseKeys[j] = m.sortedBaseKeys(j)
		for _, k := range wire.BaseKeys[j] {
			wire.BaseVals[j] = append(wire.BaseVals[j], m.base[j][k])
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. The bytes are not trusted: every
// shape, length, index and value is validated before it is used, and the
// restored bookkeeping must pass AuditRecount, so a decode either returns
// an error or yields a consistent matrix — it never panics. Entries may
// arrive in any order (files written before cells were sorted are in map
// order).
func (m *DynRow) GobDecode(data []byte) error {
	var wire gobDynRow
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return err
	}
	n := len(wire.EntryRow)
	switch {
	case wire.Rows < 0 || wire.Rows > math.MaxInt32 || wire.Cols <= 0 || wire.Cols > math.MaxInt32 ||
		wire.Blocks <= 0 || wire.Blocks > wire.Cols:
		return fmt.Errorf("sparse: decode: invalid shape %d×%d / %d blocks", wire.Rows, wire.Cols, wire.Blocks)
	case wire.Rows > maxDecodeCells/wire.Blocks:
		return fmt.Errorf("sparse: decode: shape %d×%d / %d blocks exceeds %d cells", wire.Rows, wire.Cols, wire.Blocks, maxDecodeCells)
	case len(wire.EntryCol) != n || len(wire.EntryVal) != n:
		return fmt.Errorf("sparse: decode: entry slices of %d rows, %d columns, %d values", n, len(wire.EntryCol), len(wire.EntryVal))
	}
	for i, r := range wire.EntryRow {
		if c := wire.EntryCol[i]; r < 0 || int(r) >= wire.Rows || c < 0 || int(c) >= wire.Cols {
			return fmt.Errorf("sparse: decode: entry (%d,%d) outside %d×%d", r, c, wire.Rows, wire.Cols)
		}
	}
	if _, nb := blockLayout(wire.Cols, wire.Blocks); len(wire.FrobSq) != nb || len(wire.DeltaSq) != nb || len(wire.BaseKeys) != nb || len(wire.BaseVals) != nb {
		return fmt.Errorf("sparse: decode: bookkeeping for %d/%d/%d/%d blocks, matrix has %d",
			len(wire.FrobSq), len(wire.DeltaSq), len(wire.BaseKeys), len(wire.BaseVals), nb)
	}
	for j, keys := range wire.BaseKeys {
		if len(wire.BaseVals[j]) != len(keys) {
			return fmt.Errorf("sparse: decode: block %d has %d baseline keys but %d values", j, len(keys), len(wire.BaseVals[j]))
		}
	}
	dec := NewDynRow(wire.Rows, wire.Cols, wire.Blocks)
	// Raw insert (no delta tracking — bookkeeping is restored verbatim
	// below); the nnz counters count what was actually inserted.
	for i, r := range wire.EntryRow {
		c := wire.EntryCol[i]
		j := dec.BlockOf(int(c))
		cl := dec.cell(int(r), j)
		at, dup := slices.BinarySearch(cl.cols, c)
		if dup {
			return fmt.Errorf("sparse: decode: entry (%d,%d) stored twice", r, c)
		}
		dec.insert(cl, j, at, c, wire.EntryVal[i])
	}
	copy(dec.frobSq, wire.FrobSq)
	copy(dec.deltaSq, wire.DeltaSq)
	for j, keys := range wire.BaseKeys {
		for i, k := range keys {
			if _, dup := dec.base[j][k]; dup {
				return fmt.Errorf("sparse: decode: block %d baseline key %d stored twice", j, k)
			}
			dec.base[j][k] = wire.BaseVals[j][i]
		}
	}
	// No stored zero or NaN, baseline keys inside their block, norms that
	// match the contents.
	if err := dec.AuditRecount(); err != nil {
		return fmt.Errorf("sparse: decode: %w", err)
	}
	*m = *dec
	return nil
}
