package core

import (
	"fmt"
	"math"

	"github.com/tree-svd/treesvd/internal/linalg"
)

// AuditShapes verifies the tree's cached nodes against the matrix it
// wraps and the geometry its configuration implies: no node before the
// first pass, then every level of levelCounts fully populated, each node
// passing validNode and validProjection. O(nodes) — cheap enough to
// run after every update (Embedder.Audit).
func (t *Tree) AuditShapes() error {
	if !t.built {
		if len(t.levels) != 0 {
			return fmt.Errorf("core: audit: unbuilt tree caches %d levels", len(t.levels))
		}
		return nil
	}
	counts := t.levelCounts()
	if len(t.levels) != len(counts) {
		return fmt.Errorf("core: audit: %d levels cached, geometry has %d", len(t.levels), len(counts))
	}
	for l, level := range t.levels {
		if len(level) != counts[l] {
			return fmt.Errorf("core: audit: level %d has %d nodes, the tree over %d blocks has %d level-%d nodes",
				l+1, len(level), t.m.NumBlocks(), counts[l], l+1)
		}
		for j, n := range level {
			what := "core: audit: " + nodeName(l, j, len(counts))
			if n == nil || n.res == nil {
				return fmt.Errorf("%s is missing", what)
			}
			if err := validNode(n.res.U, n.res.S, n.tail, t.m.Rows(), t.cfg.Rank, what); err != nil {
				return err
			}
			cols := 0
			if l > 0 {
				cols = inputCols(t.kids(t.levels[l-1], j))
			}
			if err := validProjection(n.p, n.res.Rank(), cols, l > 0, what); err != nil {
				return err
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

// validProjection checks a node's projection P: none at level 1, and
// above it r×cols for a node of rank r whose children's ranks sum to
// cols.
func validProjection(p *linalg.Dense, r, cols int, upper bool, what string) error {
	switch {
	case !upper && p != nil:
		return fmt.Errorf("%s is a level-1 node and carries a projection P", what)
	case !upper:
		return nil
	case p == nil:
		return fmt.Errorf("%s has no projection P", what)
	case p.Rows != r || p.Cols != cols:
		return fmt.Errorf("%s projection P is %d×%d, want %d×%d", what, p.Rows, p.Cols, r, cols)
	case len(p.Data) != p.Rows*p.Cols:
		return fmt.Errorf("%s projection P is %d×%d over %d values", what, p.Rows, p.Cols, len(p.Data))
	}
	return nil
}

// nodeName names node j of level l+1 in a tree of the given number of
// levels, for error messages.
func nodeName(l, j, levels int) string {
	if l == levels-1 {
		return "root"
	}
	return fmt.Sprintf("level-%d node %d", l+1, j)
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

// certTol is the certificate's one relative tolerance. Over every batch
// of the differential harness (the 8 default seeds, the 4 long-horizon
// ones and 64 more; every level-1 block on rsvd.Sparse's exact narrow
// route, whose U is orthonormal only to 1.6e-9) its first three
// quantities stayed within 1.8e-15·σ₁² (Gram), 2.2e-13·σ₁² (projection)
// and 2.2e-15·‖X‖² (level-1 tail); at TestUpperGateNearOptimal's
// checkpoints, level 1 sketched, within 4.9e-15, 6.7e-15 and 2.4e-15.
// 1e-10 leaves 450× headroom. The cached P, checked to certTol·σ₁,
// drifted from Uᵀ·X by at most 3.1e-15·σ₁ over 64 harness seeds and
// 2.3e-15·σ₁ at those checkpoints.
const certTol = 1e-10

// Certify checks every cached node against its input X — the block as
// its factor saw it (DynRow.BaselineBlockCSR) at level 1, the node's
// current children as U·Σ above it — with P = UᵀX (computed here, not
// the cached one):
//
//   - (UΣ)ᵀ(UΣ) = Σ² to certTol·σ₁²: U is orthonormal wherever Σ weighs
//     it, so U·Σ feeds the parent Σ's energy and no more;
//   - P·Pᵀ = Σ² to certTol·σ₁²: Σ is the spectrum of X's projection onto
//     U and U holds X's singular directions within its span;
//   - the exact projection error ‖X‖²_F − ‖P‖²_F equals t² to
//     certTol·‖X‖²_F at level 1, where t is Eqn. 2's cached tail, and is
//     at most ((1+η)·t)² + certTol·‖X‖²_F above it, the upper-level
//     gate's invariant (an exact merge leaves t, an accepted refined copy
//     at most (1+η)·t, and a node no pass dirtied keeps its children);
//   - above level 1, the cached P equals UᵀX to certTol·σ₁ entry by
//     entry: the next refine starts from it.
//
// None of it depends on the route that produced the node, so a tree
// restored from a save is certified like a live one. It runs AuditShapes
// first. O(nnz·d + nodes·|S|·k·d²); harness use.
func (t *Tree) Certify() error {
	if err := t.AuditShapes(); err != nil || !t.built {
		return err
	}
	for l, level := range t.levels {
		for j, n := range level {
			var y *linalg.Dense // Xᵀ·U, so P·Pᵀ = yᵀy
			var frob float64
			if l == 0 {
				x := t.m.BaselineBlockCSR(j)
				y, frob = x.TMulDenseW(n.res.U, 1), x.FrobNorm()
			} else {
				x := t.nodeInput(t.kids(t.levels[l-1], j))
				y, frob = linalg.TMulW(x, n.res.U, 1), x.FrobNorm()
				linalg.PutDense(x)
			}
			if err := certifyNode(n, y, frob, l == 0); err != nil {
				return fmt.Errorf("core: certificate: %s %w", nodeName(l, j, len(t.levels)), err)
			}
		}
	}
	return nil
}

// certifyNode checks one node's quantities given y = Xᵀ·U and ‖X‖_F;
// exactTail demands t² rather than bounding by ((1+η)·t)².
func certifyNode(n *node, y *linalg.Dense, frob float64, exactTail bool) error {
	s := n.res.S
	var sigma1Sq float64
	if len(s) > 0 {
		sigma1Sq = s[0] * s[0]
	}
	if n.p != nil {
		for i := 0; i < n.p.Rows; i++ {
			for k, x := range n.p.Row(i) {
				if d := math.Abs(x - y.At(k, i)); !(d <= certTol*s[0]) {
					return fmt.Errorf("cached P differs from UᵀX at (%d,%d) by %g (σ₁ = %g)", i, k, d, s[0])
				}
			}
		}
	}
	for _, g := range []struct {
		name string
		m    *linalg.Dense
	}{{"(UΣ)ᵀ(UΣ)", linalg.GramW(n.res.US(), 1)}, {"P·Pᵀ", linalg.GramW(y, 1)}} {
		for i := 0; i < g.m.Rows; i++ {
			for k, x := range g.m.Row(i) {
				if i == k {
					x -= s[i] * s[i]
				}
				if math.Abs(x) > certTol*sigma1Sq {
					return fmt.Errorf("%s differs from Σ² at (%d,%d) by %g (σ₁² = %g)", g.name, i, k, x, sigma1Sq)
				}
			}
		}
	}
	proj := y.FrobNorm()
	errSq, tailSq := frob*frob-proj*proj, n.tail*n.tail
	slack := certTol * frob * frob
	if exactTail {
		if math.Abs(errSq-tailSq) > slack {
			return fmt.Errorf("projection error² %g is not its tail² %g", errSq, tailSq)
		}
		return nil
	}
	if bound := (1 + upperGateEta) * n.tail; errSq > bound*bound+slack {
		return fmt.Errorf("misses its children by %g, beyond (1+%g)·t = %g",
			math.Sqrt(errSq), upperGateEta, bound)
	}
	return nil
}
