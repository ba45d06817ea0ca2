package core

import (
	"fmt"
	"math"

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
// input is U·S) and its tail — Eqn. 2's cached tail at level 1, the
// anchor tail the upper-level gate measures refined copies against above
// it.
type SavedNode struct {
	U    *linalg.Dense
	S    []float64
	Tail float64
}

// Snapshot captures the tree's cached state for persistence.
func (t *Tree) Snapshot() *TreeSnapshot {
	snap := &TreeSnapshot{Seq: t.seq, Built: t.built, Levels: make([][]SavedNode, len(t.levels))}
	for l, level := range t.levels {
		snap.Levels[l] = make([]SavedNode, len(level))
		for j, n := range level {
			snap.Levels[l][j] = SavedNode{U: n.res.U, S: n.res.S, Tail: n.tail}
		}
	}
	return snap
}

// RestoreTree rebuilds a Tree over matrix m from a snapshot taken with the
// same configuration. The block partition of m must match the snapshot.
// Snapshots come from untrusted decodes, so every cached node is checked
// against the matrix and the tree geometry before it is installed; a
// corrupted snapshot errors here instead of panicking inside a later
// merge or read.
func RestoreTree(m *sparse.DynRow, cfg Config, snap *TreeSnapshot) (*Tree, error) {
	t, err := NewTree(m, cfg)
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("core: nil tree snapshot")
	}
	if err := snap.validate(m, cfg); err != nil {
		return nil, err
	}
	t.levels = make([][]*node, len(snap.Levels))
	for l, level := range snap.Levels {
		t.levels[l] = make([]*node, len(level))
		for j, n := range level {
			t.levels[l][j] = &node{res: &linalg.SVDResult{U: n.U, S: n.S}, tail: n.Tail}
		}
	}
	t.seq, t.built = snap.Seq, snap.Built
	return t, nil
}

// validate checks a decoded snapshot against the matrix it is being
// rewired onto and the tree geometry cfg implies: a built tree has every
// node of levelCounts, an unbuilt one none, and each node passes
// validNode with entries and σ₁ bounded as below.
func (snap *TreeSnapshot) validate(m *sparse.DynRow, cfg Config) error {
	var counts []int
	if snap.Built {
		counts = levelCounts(m.NumBlocks(), cfg.Branch)
	}
	if len(snap.Levels) != len(counts) {
		return fmt.Errorf("core: snapshot has %d levels, a tree over %d blocks (built %t) has %d",
			len(snap.Levels), m.NumBlocks(), snap.Built, len(counts))
	}
	// Values, not only shapes: a NaN, an Inf or an absurd magnitude in a
	// factor passes every shape check, then poisons the first merge over it
	// or every score read from the root. A basis column is a unit vector, so
	// no entry exceeds 1 beyond rounding; no node holds more energy than
	// the block baselines beneath it, whose norm is at most
	// E = √Σ_j (‖B_j‖ + ‖D_j‖)². Both bounds are checked at twice that,
	// which keeps every later merge finite.
	var eSq float64
	for j := 0; j < m.NumBlocks(); j++ {
		b := m.BlockFrobNorm(j) + m.DeltaFrobNorm(j)
		eSq += b * b
	}
	maxSigma := 2 * math.Sqrt(eSq)
	for l, level := range snap.Levels {
		if len(level) != counts[l] {
			return fmt.Errorf("core: snapshot has %d level-%d nodes, the tree over %d blocks has %d",
				len(level), l+1, m.NumBlocks(), counts[l])
		}
		for j, n := range level {
			what := "core: snapshot " + nodeName(l, j, len(counts))
			if err := validNode(n.U, n.S, n.Tail, m.Rows(), cfg.Rank, what); err != nil {
				return err
			}
			for _, v := range n.U.Data {
				if !(math.Abs(v) <= 2) {
					return fmt.Errorf("%s basis holds %g, a non-finite value or beyond a unit vector's entries", what, v)
				}
			}
			if len(n.S) > 0 && n.S[0] > maxSigma {
				return fmt.Errorf("%s σ₁ = %g exceeds twice the matrix's baseline norm %g", what, n.S[0], maxSigma/2)
			}
		}
	}
	return nil
}

// validNode checks one node at any level: a basis of the matrix's row
// count with one column per singular value and Rows·Cols values, at most
// rank of them, a descending finite non-negative spectrum and a finite
// non-negative tail.
func validNode(u *linalg.Dense, s []float64, tail float64, rows, rank int, what string) error {
	switch {
	case u == nil:
		return fmt.Errorf("%s has no basis", what)
	case u.Rows != rows:
		return fmt.Errorf("%s basis has %d rows, matrix has %d", what, u.Rows, rows)
	case u.Cols != len(s):
		return fmt.Errorf("%s has %d left vectors for %d singular values", what, u.Cols, len(s))
	case len(u.Data) != u.Rows*u.Cols:
		return fmt.Errorf("%s basis is %d×%d over %d values", what, u.Rows, u.Cols, len(u.Data))
	case len(s) > rank:
		return fmt.Errorf("%s rank %d exceeds configured rank %d", what, len(s), rank)
	case !finiteNonNegative(tail):
		return fmt.Errorf("%s has invalid tail energy %g", what, tail)
	}
	return descendingSpectrum(s, what)
}

// finiteNonNegative reports whether x is a valid energy or singular value:
// NaN, ±Inf and negatives are not.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
