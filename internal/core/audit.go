package core

import (
	"fmt"
	"math"

	"github.com/tree-svd/treesvd/internal/linalg"
)

// AuditShapes verifies the tree's cached structures against the matrix it
// wraps and the geometry its configuration implies: one level-1 cache per
// block with |S|-row Ū matrices and sane tail energies, upper-level cache
// slices sized by levelCounts, and a root whose dimensions agree with its
// spectrum. O(levels) — cheap enough for per-update self-checks.
func (t *Tree) AuditShapes() error {
	if len(t.level1) != t.m.NumBlocks() {
		return fmt.Errorf("core: audit: %d level-1 caches for %d blocks", len(t.level1), t.m.NumBlocks())
	}
	for j, c := range t.level1 {
		if c == nil {
			if t.built {
				return fmt.Errorf("core: audit: built tree missing level-1 cache %d", j)
			}
			continue
		}
		if c.us == nil || c.us.Rows != t.m.Rows() {
			return fmt.Errorf("core: audit: level-1 cache %d has wrong shape (want %d rows)", j, t.m.Rows())
		}
		if !finiteNonNegative(c.tail) {
			return fmt.Errorf("core: audit: level-1 cache %d has invalid tail energy %g", j, c.tail)
		}
	}
	if !t.built {
		return nil
	}
	counts := t.levelCounts()
	if len(t.upper) != len(counts)-2 {
		return fmt.Errorf("core: audit: %d upper levels cached, geometry has %d", len(t.upper), len(counts)-2)
	}
	for li, level := range t.upper {
		if len(level) != counts[li+1] {
			return fmt.Errorf("core: audit: upper level %d has %d nodes, want %d", li, len(level), counts[li+1])
		}
		for j, n := range level {
			if err := t.auditNode(n, fmt.Sprintf("upper node (%d,%d)", li, j)); err != nil {
				return err
			}
		}
	}
	return t.auditNode(t.root, "root")
}

// auditNode checks one upper node as RestoreTree's validNode checks a
// decoded one: present, an |S|-row U with one column per singular value,
// at most the configured rank, a finite non-negative descending spectrum
// and a finite non-negative anchor tail.
func (t *Tree) auditNode(n *upperNode, what string) error {
	if n == nil || n.res == nil || n.res.U == nil {
		return fmt.Errorf("core: audit: %s missing", what)
	}
	return validNode(n.res.U, n.res.S, n.tail, t.m.Rows(), t.cfg.Rank, "core: audit: "+what)
}

// descendingSpectrum reports the first singular value that is not finite
// and non-negative or that exceeds its predecessor.
func descendingSpectrum(s []float64, what string) error {
	for i, x := range s {
		if !finiteNonNegative(x) {
			return fmt.Errorf("%s singular value %d is %g", what, i, x)
		}
		if i > 0 && x > s[i-1] {
			return fmt.Errorf("%s spectrum not descending at %d (%g > %g)", what, i, x, s[i-1])
		}
	}
	return nil
}

// AuditUpper checks the upper-level gate's invariant on every node above
// level 1: its basis is orthonormal to 1e-10, its spectrum and anchor
// tail pass auditNode, and its projection error on its *current*
// children, √(‖C‖²_F − ‖UᵀC‖²_F), is within (1+η)·t·(1 + 1e-9) of its
// anchor tail t. An exact merge leaves error = t and an accepted refined
// copy at most (1+η)·t; a node no pass dirtied keeps its children. A
// rounding floor of 1e-12·‖C‖²_F on the squared comparison admits nodes
// whose input has rank ≤ d, where t itself is rounding noise. O(|S|·k·d²)
// per node; harness use.
func (t *Tree) AuditUpper() error {
	if !t.built {
		return nil
	}
	if err := t.AuditShapes(); err != nil {
		return err
	}
	counts := t.levelCounts()
	for cl := 0; cl+1 < len(counts); cl++ {
		for pj := 0; pj < counts[cl+1]; pj++ {
			n, what := t.root, "root"
			if cl+2 < len(counts) {
				n, what = t.upper[cl][pj], fmt.Sprintf("upper node (%d,%d)", cl, pj)
			}
			u := n.res.U
			g := linalg.TMul(u, u)
			for i := 0; i < g.Rows; i++ {
				for j, x := range g.Row(i) {
					if i == j {
						x--
					}
					if math.Abs(x) > 1e-10 {
						return fmt.Errorf("core: audit: %s basis is not orthonormal: (UᵀU − I)[%d,%d] = %g", what, i, j, x)
					}
				}
			}
			cc := t.nodeInput(t.level1, t.upper, counts, cl, pj)
			frob := cc.FrobNorm()
			proj := linalg.TMul(u, cc).FrobNorm()
			linalg.PutDense(cc)
			errSq := frob*frob - proj*proj
			bound := (1 + upperGateEta) * n.tail * (1 + 1e-9)
			if errSq > bound*bound+1e-12*frob*frob {
				return fmt.Errorf("core: audit: %s misses its children by %g, beyond (1+%g)·t = %g",
					what, math.Sqrt(errSq), upperGateEta, (1+upperGateEta)*n.tail)
			}
		}
	}
	return nil
}

// AuditBlock re-derives level-1 block j's cached factorization from first
// principles: it reconstructs the block as it stood at the cache's rebuild
// (the DynRow baseline), re-runs the randomized SVD at the seed recorded
// in the cache, and demands Ū and the tail energy match. A mismatch means
// either the baseline bookkeeping or the cache went stale without the
// Eqn. 2 trigger noticing. Caches restored from snapshots without seed
// provenance (seq < 0) are skipped. O(block factorization) — harness use
// only.
func (t *Tree) AuditBlock(j int) error {
	if j < 0 || j >= len(t.level1) {
		return fmt.Errorf("core: audit: block %d outside [0,%d)", j, len(t.level1))
	}
	c := t.level1[j]
	if c == nil || c.seq < 0 {
		return nil
	}
	ref, err := t.factorCSR(t.m.BaselineBlockCSR(j), j, c.seq, 1)
	if err != nil {
		return fmt.Errorf("core: audit: re-factoring block %d: %w", j, err)
	}
	if ref.us.Rows != c.us.Rows || ref.us.Cols != c.us.Cols {
		return fmt.Errorf("core: audit: block %d cache is %d×%d, replay produced %d×%d",
			j, c.us.Rows, c.us.Cols, ref.us.Rows, ref.us.Cols)
	}
	// The randomized draw is pinned by the seed and independent of the
	// worker budget, so the replay should be bit-identical; the tolerance
	// only absorbs non-associative float reductions.
	const tol = 1e-9
	if d := math.Abs(ref.tail - c.tail); d > tol*(1+math.Abs(ref.tail)) {
		return fmt.Errorf("core: audit: block %d tail energy %g, replay %g", j, c.tail, ref.tail)
	}
	for r := 0; r < ref.us.Rows; r++ {
		want, got := ref.us.Row(r), c.us.Row(r)
		for i := range want {
			if d := math.Abs(want[i] - got[i]); d > tol*(1+math.Abs(want[i])) {
				return fmt.Errorf("core: audit: block %d cache diverges from replay at (%d,%d): %g vs %g",
					j, r, i, got[i], want[i])
			}
		}
	}
	return nil
}

// AuditBlocks runs AuditBlock over every level-1 block.
func (t *Tree) AuditBlocks() error {
	for j := range t.level1 {
		if err := t.AuditBlock(j); err != nil {
			return err
		}
	}
	return nil
}
