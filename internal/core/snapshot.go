package core

import (
	"fmt"
	"math"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// TreeSnapshot is the serializable state of a Tree: every cached
// factorization plus the randomized-draw counter. The proximity DynRow is
// serialized separately by the owner (it is shared state); Restore rewires
// the snapshot onto it.
type TreeSnapshot struct {
	Level1US   []*linalg.Dense
	Level1Tail []float64
	// Level1Seq records the factorization counter each cache was built at
	// (seed provenance for the correctness harness). Absent in saves from
	// older versions — gob leaves the slice nil and Restore falls back to
	// the "no provenance" sentinel, keeping old saves loadable.
	Level1Seq []int64
	// UpperU, UpperS and UpperTail hold the nodes between level 1 and the
	// root, level by level: each node's basis U, its spectrum Σ (the
	// parent's input is U·Σ) and the anchor tail its last exact merge
	// left, which the upper-level gate measures refined copies against.
	UpperU    [][]*linalg.Dense
	UpperS    [][][]float64
	UpperTail [][]float64
	RootU     *linalg.Dense
	RootS     []float64
	RootV     *linalg.Dense
	RootTail  float64
	Seq       int64
	Built     bool
}

// Snapshot captures the tree's cached state for persistence.
func (t *Tree) Snapshot() *TreeSnapshot {
	snap := &TreeSnapshot{Seq: t.seq, Built: t.built}
	snap.Level1US = make([]*linalg.Dense, len(t.level1))
	snap.Level1Tail = make([]float64, len(t.level1))
	snap.Level1Seq = make([]int64, len(t.level1))
	for j, c := range t.level1 {
		if c != nil {
			snap.Level1US[j] = c.us
			snap.Level1Tail[j] = c.tail
			snap.Level1Seq[j] = c.seq
		} else {
			snap.Level1Seq[j] = -1
		}
	}
	for _, level := range t.upper {
		us, ss, tails := make([]*linalg.Dense, len(level)), make([][]float64, len(level)), make([]float64, len(level))
		for j, n := range level {
			us[j], ss[j], tails[j] = n.res.U, n.res.S, n.tail
		}
		snap.UpperU = append(snap.UpperU, us)
		snap.UpperS = append(snap.UpperS, ss)
		snap.UpperTail = append(snap.UpperTail, tails)
	}
	if t.root != nil {
		snap.RootU, snap.RootS, snap.RootV, snap.RootTail = t.root.res.U, t.root.res.S, t.root.res.V, t.root.tail
	}
	return snap
}

// RestoreTree rebuilds a Tree over matrix m from a snapshot taken with the
// same configuration. The block partition of m must match the snapshot.
// Snapshots come from untrusted decodes, so every cached structure is
// shape-checked against the matrix and the tree geometry before it is
// installed; a corrupted snapshot errors here instead of panicking inside
// a later merge or read.
func RestoreTree(m *sparse.DynRow, cfg Config, snap *TreeSnapshot) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("core: nil tree snapshot")
	}
	if len(snap.Level1US) != m.NumBlocks() {
		return nil, fmt.Errorf("core: snapshot has %d level-1 blocks, matrix has %d",
			len(snap.Level1US), m.NumBlocks())
	}
	if err := snap.validate(m, cfg); err != nil {
		return nil, err
	}
	t, err := NewTree(m, cfg)
	if err != nil {
		return nil, err
	}
	for j, us := range snap.Level1US {
		if us != nil {
			seq := int64(-1) // no provenance: AuditBlock skips this cache
			if len(snap.Level1Seq) == len(snap.Level1US) {
				seq = snap.Level1Seq[j]
			}
			t.level1[j] = &blockCache{us: us, tail: snap.Level1Tail[j], seq: seq}
		}
	}
	for li, level := range snap.UpperU {
		nodes := make([]*upperNode, len(level))
		for j, u := range level {
			nodes[j] = &upperNode{res: &linalg.SVDResult{U: u, S: snap.UpperS[li][j]}, tail: snap.UpperTail[li][j]}
		}
		t.upper = append(t.upper, nodes)
	}
	if snap.RootU != nil {
		t.root = &upperNode{res: &linalg.SVDResult{U: snap.RootU, S: snap.RootS, V: snap.RootV}, tail: snap.RootTail}
	}
	t.seq = snap.Seq
	t.built = snap.Built
	return t, nil
}

// validate checks a decoded snapshot against the matrix it is being
// rewired onto and the tree geometry cfg implies: shapes first, then that
// every cached factor is finite.
func (snap *TreeSnapshot) validate(m *sparse.DynRow, cfg Config) error {
	if len(snap.Level1Tail) != len(snap.Level1US) {
		return fmt.Errorf("core: snapshot has %d tail energies for %d level-1 blocks",
			len(snap.Level1Tail), len(snap.Level1US))
	}
	for j, us := range snap.Level1US {
		if us == nil {
			continue
		}
		if us.Rows != m.Rows() {
			return fmt.Errorf("core: snapshot block %d cache has %d rows, matrix has %d", j, us.Rows, m.Rows())
		}
		if tail := snap.Level1Tail[j]; !finiteNonNegative(tail) {
			return fmt.Errorf("core: snapshot block %d has invalid tail energy %g", j, tail)
		}
	}
	// Geometry of the cached upper levels: a built tree has every node
	// of levelCounts between level 1 and the root, an unbuilt one none.
	counts := levelCounts(len(snap.Level1US), cfg.Branch)
	want := len(counts) - 2
	if !snap.Built {
		want = 0
	}
	if len(snap.UpperU) != want || len(snap.UpperS) != want || len(snap.UpperTail) != want {
		return fmt.Errorf("core: snapshot has %d/%d/%d upper levels (bases/spectra/tails), tree geometry has %d",
			len(snap.UpperU), len(snap.UpperS), len(snap.UpperTail), want)
	}
	for li, level := range snap.UpperU {
		if len(level) != counts[li+1] || len(snap.UpperS[li]) != counts[li+1] || len(snap.UpperTail[li]) != counts[li+1] {
			return fmt.Errorf("core: snapshot upper level %d has %d/%d/%d nodes, want %d",
				li, len(level), len(snap.UpperS[li]), len(snap.UpperTail[li]), counts[li+1])
		}
		for j, u := range level {
			what := fmt.Sprintf("core: snapshot upper node (%d,%d)", li, j)
			if u == nil {
				return fmt.Errorf("%s is missing", what)
			}
			if err := validNode(u, snap.UpperS[li][j], snap.UpperTail[li][j], m.Rows(), cfg.Rank, what); err != nil {
				return err
			}
		}
	}
	if snap.Built && snap.RootU == nil {
		return fmt.Errorf("core: snapshot marked built without a root factorization")
	}
	if snap.RootU != nil {
		if err := validNode(snap.RootU, snap.RootS, snap.RootTail, m.Rows(), cfg.Rank, "core: snapshot root"); err != nil {
			return err
		}
		if snap.RootV != nil && snap.RootV.Cols != len(snap.RootS) {
			return fmt.Errorf("core: snapshot root has %d right vectors for %d singular values",
				snap.RootV.Cols, len(snap.RootS))
		}
	}
	// Values, not only shapes: a NaN or Inf in a cached factor passes every
	// check above and every auditor (none reads the factors' entries), then
	// poisons the first merge over it or every score read from the root.
	type group struct {
		what string
		ds   []*linalg.Dense
	}
	groups := []group{
		{"level-1 cache", snap.Level1US}, {"root factor", []*linalg.Dense{snap.RootU, snap.RootV}},
	}
	for _, level := range snap.UpperU {
		groups = append(groups, group{"upper basis", level})
	}
	for _, g := range groups {
		for j, d := range g.ds {
			if d == nil {
				continue
			}
			if d.Rows < 0 || d.Cols < 0 || len(d.Data) != d.Rows*d.Cols {
				return fmt.Errorf("core: snapshot %s %d is %d×%d over %d values", g.what, j, d.Rows, d.Cols, len(d.Data))
			}
			for _, v := range d.Data {
				if v-v != 0 { // NaN and ±Inf are the values v−v is not 0 for
					return fmt.Errorf("core: snapshot %s %d holds a non-finite value", g.what, j)
				}
			}
		}
	}
	return nil
}

// validNode checks one decoded upper node: a basis of the matrix's row
// count with one column per singular value, at most rank of them, a
// descending finite non-negative spectrum and a finite non-negative
// anchor tail.
func validNode(u *linalg.Dense, s []float64, tail float64, rows, rank int, what string) error {
	switch {
	case u.Rows != rows:
		return fmt.Errorf("%s basis has %d rows, matrix has %d", what, u.Rows, rows)
	case u.Cols != len(s):
		return fmt.Errorf("%s has %d left vectors for %d singular values", what, u.Cols, len(s))
	case len(s) > rank:
		return fmt.Errorf("%s rank %d exceeds configured rank %d", what, len(s), rank)
	case !finiteNonNegative(tail):
		return fmt.Errorf("%s has invalid anchor tail %g", what, tail)
	}
	return descendingSpectrum(s, what)
}

// finiteNonNegative reports whether x is a valid energy or singular value:
// NaN, ±Inf and negatives are not.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
