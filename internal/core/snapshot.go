package core

import (
	"fmt"
	"math"

	"github.com/tree-svd/treesvd/internal/column"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// TreeSnapshot is the serializable state of a Tree: every cached node,
// level by level from the level-1 blocks to the root (none before the
// first pass), and the pass counter that pins the next pass's randomized
// draws. The proximity DynRow is serialized separately by the owner (it
// is shared state); RestoreTree rewires the snapshot onto it.
type TreeSnapshot struct {
	Levels [][]SavedNode
	Seq    int64
	Built  bool
}

// SavedNode is one cached node: its basis U, its spectrum S (the parent's
// input is U·S), above level 1 its projection P = S·Vᵀ on its children
// (nil at level 1), and its tail — Eqn. 2's cached tail at level 1, the
// anchor tail the upper-level gate measures refined copies against above
// it. P is saved so that a restored tree refines bit for bit like one
// that never restarted.
type SavedNode struct {
	U    *linalg.Dense
	S    []float64
	P    *linalg.Dense
	Tail float64
}

// Snapshot captures the tree's cached state for persistence.
func (t *Tree) Snapshot() *TreeSnapshot {
	snap := &TreeSnapshot{Seq: t.seq, Built: t.built, Levels: make([][]SavedNode, len(t.levels))}
	for l, level := range t.levels {
		snap.Levels[l] = make([]SavedNode, len(level))
		for j, n := range level {
			snap.Levels[l][j] = SavedNode{U: n.res.U, S: n.res.S, P: n.p, Tail: n.tail}
		}
	}
	return snap
}

// A snapshot's saved form, in column's little-endian layout:
//
//	int64 Seq | byte Built | count, then per level: count, then per node:
//	    U | S | P | float64 Tail
//
// where a matrix is a byte, 0 for none, else 1 and then int32 Rows |
// int32 Cols | Data in row-major order.

// minNodeLen is the size of the smallest saved node: no U, no S, no P.
const minNodeLen = 1 + column.CountLen + 1 + 8

// denseLen is the size of a saved matrix.
func denseLen(d *linalg.Dense) int {
	if d == nil {
		return 1
	}
	return 9 + column.Float64sLen(len(d.Data))
}

// EncodedLen is the size of the snapshot's saved form.
func (s *TreeSnapshot) EncodedLen() int {
	n := 9 + column.CountLen
	for _, level := range s.Levels {
		n += column.CountLen
		for _, nd := range level {
			n += denseLen(nd.U) + column.Float64sLen(len(nd.S)) + denseLen(nd.P) + 8
		}
	}
	return n
}

// AppendEncoded appends the snapshot's saved form to b.
func (s *TreeSnapshot) AppendEncoded(b []byte) []byte {
	b = column.AppendUint64(b, uint64(s.Seq))
	built := byte(0)
	if s.Built {
		built = 1
	}
	b = append(b, built)
	b = column.AppendUint64(b, uint64(len(s.Levels)))
	for _, level := range s.Levels {
		b = column.AppendUint64(b, uint64(len(level)))
		for _, nd := range level {
			b = appendDense(b, nd.U)
			b = column.AppendFloat64s(b, nd.S)
			b = appendDense(b, nd.P)
			b = column.AppendFloat64(b, nd.Tail)
		}
	}
	return b
}

func appendDense(b []byte, d *linalg.Dense) []byte {
	if d == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = column.AppendUint32(b, uint32(d.Rows))
	b = column.AppendUint32(b, uint32(d.Cols))
	return column.AppendFloat64s(b, d.Data)
}

// DecodeTreeSnapshot reads a snapshot from its saved form. It checks the
// layout only — every count against the bytes behind it, every matrix's
// shape against its values; RestoreTree checks the nodes against the
// matrix and the tree's geometry.
func DecodeTreeSnapshot(data []byte) (*TreeSnapshot, error) {
	r := column.NewReader(data)
	s := &TreeSnapshot{Seq: int64(r.Uint64())}
	built := r.Byte()
	s.Levels = make([][]SavedNode, r.Count(column.CountLen))
	var err error
	for l := range s.Levels {
		s.Levels[l] = make([]SavedNode, r.Count(minNodeLen))
		for j := range s.Levels[l] {
			nd := &s.Levels[l][j]
			if nd.U, err = readDense(r); err != nil {
				return nil, err
			}
			nd.S = r.Float64s()
			if nd.P, err = readDense(r); err != nil {
				return nil, err
			}
			nd.Tail = r.Float64()
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if built > 1 {
		return nil, fmt.Errorf("core: decode snapshot: built flag %d", built)
	}
	s.Built = built == 1
	return s, nil
}

// readDense reads one saved matrix. It reports a bad tag or shape; a
// framing error stays with r.
func readDense(r *column.Reader) (*linalg.Dense, error) {
	switch tag := r.Byte(); {
	case r.Err() != nil || tag == 0:
		return nil, nil
	case tag != 1:
		return nil, fmt.Errorf("core: decode snapshot: matrix tag %d", tag)
	}
	d := &linalg.Dense{Rows: int(r.Int32()), Cols: int(r.Int32())}
	d.Data = r.Float64s()
	if r.Err() == nil && (d.Rows < 0 || d.Cols < 0 || d.Rows*d.Cols != len(d.Data)) {
		return nil, fmt.Errorf("core: decode snapshot: %d×%d matrix over %d values", d.Rows, d.Cols, len(d.Data))
	}
	return d, nil
}

// RestoreTree rebuilds a Tree over matrix m from a snapshot taken with the
// same configuration. The block partition of m must match the snapshot.
// Snapshots come from untrusted decodes, so the installed nodes must pass
// AuditShapes against m and the tree geometry, and their values the bounds
// below; a corrupted snapshot errors here instead of panicking inside a
// later merge or read.
func RestoreTree(m *sparse.DynRow, cfg Config, snap *TreeSnapshot) (*Tree, error) {
	t, err := NewTree(m, cfg)
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("core: nil tree snapshot")
	}
	t.levels = make([][]*node, len(snap.Levels))
	for l, level := range snap.Levels {
		t.levels[l] = make([]*node, len(level))
		for j, n := range level {
			t.levels[l][j] = &node{res: &linalg.SVDResult{U: n.U, S: n.S}, p: n.P, tail: n.Tail}
		}
	}
	t.seq, t.built = snap.Seq, snap.Built
	if err := t.AuditShapes(); err != nil {
		return nil, err
	}
	// Values, not only shapes: a NaN, an Inf or an absurd magnitude in a
	// factor passes every shape check, then poisons the first merge over it
	// or every score read from the root. A basis column is a unit vector, so
	// no entry exceeds 1 beyond rounding; no node holds more energy than
	// the block baselines beneath it, whose norm is at most
	// E = √Σ_j (‖B_j‖ + ‖D_j‖)². An entry of P = Σ·Vᵀ is at most σ₁.
	// Every bound is checked at twice that, which keeps every later merge
	// and refine finite.
	var eSq float64
	for j := 0; j < m.NumBlocks(); j++ {
		b := m.BlockFrobNorm(j) + m.DeltaFrobNorm(j)
		eSq += b * b
	}
	maxSigma := 2 * math.Sqrt(eSq)
	for l, level := range t.levels {
		for j, n := range level {
			what := "core: snapshot " + nodeName(l, j, len(t.levels))
			for _, v := range n.res.U.Data {
				if !(math.Abs(v) <= 2) {
					return nil, fmt.Errorf("%s basis holds %g, a non-finite value or beyond a unit vector's entries", what, v)
				}
			}
			if s := n.res.S; len(s) > 0 && s[0] > maxSigma {
				return nil, fmt.Errorf("%s σ₁ = %g exceeds twice the matrix's baseline norm %g", what, s[0], maxSigma/2)
			}
			if n.p != nil {
				for _, v := range n.p.Data {
					if !(math.Abs(v) <= 2*n.res.S[0]) {
						return nil, fmt.Errorf("%s projection P holds %g, a non-finite value or beyond twice σ₁ = %g", what, v, n.res.S[0])
					}
				}
			}
		}
	}
	return t, nil
}
