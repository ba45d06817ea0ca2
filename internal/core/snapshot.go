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
	Upper     [][]*linalg.Dense
	RootU     *linalg.Dense
	RootS     []float64
	RootV     *linalg.Dense
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
	snap.Upper = t.upper
	if t.root != nil {
		snap.RootU = t.root.U
		snap.RootS = t.root.S
		snap.RootV = t.root.V
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
	t.upper = snap.Upper
	if snap.RootU != nil {
		t.root = &linalg.SVDResult{U: snap.RootU, S: snap.RootS, V: snap.RootV}
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
		if tail := snap.Level1Tail[j]; math.IsNaN(tail) || tail < 0 {
			return fmt.Errorf("core: snapshot block %d has invalid tail energy %g", j, tail)
		}
	}
	// Geometry of the cached upper levels: counts[l] nodes at level l+1,
	// mirroring Tree.levelCounts over the snapshot's block count.
	counts := []int{len(snap.Level1US)}
	for counts[len(counts)-1] > 1 {
		c := counts[len(counts)-1]
		counts = append(counts, (c+cfg.Branch-1)/cfg.Branch)
	}
	if want := max(len(counts)-2, 0); len(snap.Upper) > want {
		return fmt.Errorf("core: snapshot has %d upper levels, tree geometry allows %d", len(snap.Upper), want)
	}
	for li, level := range snap.Upper {
		if len(level) != counts[li+1] {
			return fmt.Errorf("core: snapshot upper level %d has %d nodes, want %d", li, len(level), counts[li+1])
		}
		for j, us := range level {
			if us != nil && us.Rows != m.Rows() {
				return fmt.Errorf("core: snapshot upper cache (%d,%d) has %d rows, matrix has %d", li, j, us.Rows, m.Rows())
			}
		}
	}
	if snap.Built && snap.RootU == nil {
		return fmt.Errorf("core: snapshot marked built without a root factorization")
	}
	if snap.RootU != nil {
		switch {
		case snap.RootU.Rows != m.Rows():
			return fmt.Errorf("core: snapshot root U has %d rows, matrix has %d", snap.RootU.Rows, m.Rows())
		case snap.RootU.Cols != len(snap.RootS):
			return fmt.Errorf("core: snapshot root has %d left vectors for %d singular values",
				snap.RootU.Cols, len(snap.RootS))
		case snap.RootV != nil && snap.RootV.Cols != len(snap.RootS):
			return fmt.Errorf("core: snapshot root has %d right vectors for %d singular values",
				snap.RootV.Cols, len(snap.RootS))
		}
		for i, s := range snap.RootS {
			if math.IsNaN(s) || s < 0 {
				return fmt.Errorf("core: snapshot root singular value %d is %g", i, s)
			}
		}
	}
	// Values, not only shapes: a NaN or Inf in a cached factor passes every
	// check above and every auditor (none reads the factors' entries), then
	// poisons the first merge over it — on a sharded embedder that is
	// tql2's convergence panic on the first global read.
	type group struct {
		what string
		ds   []*linalg.Dense
	}
	groups := []group{
		{"level-1 cache", snap.Level1US}, {"root factor", []*linalg.Dense{snap.RootU, snap.RootV}},
	}
	for _, level := range snap.Upper {
		groups = append(groups, group{"upper cache", level})
	}
	for _, g := range groups {
		for j, d := range g.ds {
			if d == nil {
				continue
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
