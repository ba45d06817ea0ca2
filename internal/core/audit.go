package core

import (
	"fmt"
	"math"
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
		if math.IsNaN(c.tail) || c.tail < 0 {
			return fmt.Errorf("core: audit: level-1 cache %d has invalid tail energy %g", j, c.tail)
		}
	}
	if !t.built {
		return nil
	}
	counts := t.levelCounts()
	if want := max(len(counts)-2, 0); len(t.upper) != want && !(len(t.upper) == 0 && want == 0) {
		return fmt.Errorf("core: audit: %d upper levels cached, geometry has %d", len(t.upper), want)
	}
	for li, level := range t.upper {
		if len(level) != counts[li+1] {
			return fmt.Errorf("core: audit: upper level %d has %d nodes, want %d", li, len(level), counts[li+1])
		}
		for j, us := range level {
			if us == nil || us.Rows != t.m.Rows() {
				return fmt.Errorf("core: audit: upper cache (%d,%d) missing or wrong shape", li, j)
			}
		}
	}
	root := t.root
	switch {
	case root == nil:
		return fmt.Errorf("core: audit: built tree has no root")
	case root.U == nil || root.U.Rows != t.m.Rows():
		return fmt.Errorf("core: audit: root U missing or wrong shape (want %d rows)", t.m.Rows())
	case root.U.Cols != len(root.S):
		return fmt.Errorf("core: audit: root has %d left vectors for %d singular values", root.U.Cols, len(root.S))
	case root.Rank() > t.cfg.Rank:
		return fmt.Errorf("core: audit: root rank %d exceeds configured rank %d", root.Rank(), t.cfg.Rank)
	}
	for i, s := range root.S {
		if math.IsNaN(s) || s < 0 {
			return fmt.Errorf("core: audit: root singular value %d is %g", i, s)
		}
		if i > 0 && s > root.S[i-1] {
			return fmt.Errorf("core: audit: root spectrum not descending at %d (%g > %g)", i, s, root.S[i-1])
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
