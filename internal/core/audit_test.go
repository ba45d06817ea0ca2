package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// auditedTree builds a tree, churns the matrix, and runs a lazy Update so
// the caches mix freshly factored and skipped blocks — the state the
// audits have to reason about.
func auditedTree(t *testing.T) (*Tree, *sparse.DynRow) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	m := sparse.NewDynRow(8, 64, 8)
	fillLowRank(rng, m, 4, 0.01, 0.4)
	tr := mustCore(NewTree(m, testConfig(4)))
	must0t(tr.Build(bgt))
	for i := 0; i < 40; i++ {
		m.Set(rng.Intn(m.Rows()), rng.Intn(m.Cols()), rng.NormFloat64())
	}
	mustCore(tr.Update(bgt))
	return tr, m
}

func TestAuditShapesClean(t *testing.T) {
	tr, _ := auditedTree(t)
	if err := tr.AuditShapes(); err != nil {
		t.Fatalf("healthy tree failed shape audit: %v", err)
	}
	if err := tr.Certify(); err != nil {
		t.Fatalf("healthy tree failed the certificate: %v", err)
	}
}

// TestAuditShapesDetectsCorruption mangles one cached structure at a time.
func TestAuditShapesDetectsCorruption(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Tree)
		want   string
	}{
		"missing level-1 cache": {
			func(tr *Tree) { tr.levels[0][2] = nil },
			"level-1 node 2 is missing",
		},
		"negative tail energy": {
			func(tr *Tree) { tr.levels[0][1].tail = -0.5 },
			"tail",
		},
		"NaN tail energy": {
			func(tr *Tree) { tr.levels[0][1].tail = math.NaN() },
			"tail",
		},
		"truncated upper level": {
			func(tr *Tree) { tr.levels[1] = tr.levels[1][:len(tr.levels[1])-1] },
			"level 2 has",
		},
		"missing root": {
			func(tr *Tree) { tr.levels[len(tr.levels)-1][0] = nil },
			"root is missing",
		},
		"spectrum not descending": {
			func(tr *Tree) { s := tr.Root().S; s[0], s[1] = s[1], s[0] },
			"spectrum",
		},
		"projection on a level-1 node": {
			func(tr *Tree) { n := tr.levels[0][1]; n.p = linalg.NewDense(n.res.Rank(), 1) },
			"carries a projection P",
		},
		"upper node without its projection": {
			func(tr *Tree) { tr.levels[1][0].p = nil },
			"has no projection P",
		},
		"projection of the wrong shape": {
			func(tr *Tree) { n := tr.levels[len(tr.levels)-1][0]; n.p = n.p.SliceCols(0, n.p.Cols-1) },
			"projection P is",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			tr, _ := auditedTree(t)
			tc.mutate(tr)
			err := tr.AuditShapes()
			if err == nil {
				t.Fatalf("corruption went undetected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestAuditUpperHoldsOverGatedUpdates: the certificate holds after every
// committed pass of a churn stream whose dirty upper nodes mix exact
// merges and refined copies.
func TestAuditUpperHoldsOverGatedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := sparse.NewDynRow(12, 96, 8)
	fillLowRank(rng, m, 6, 0.05, 0.5)
	tr := mustCore(NewTree(m, testConfig(4)))
	must0t(tr.Build(bgt))
	var merges, projections int
	for step := 0; step < 30; step++ {
		for i := 0; i < 25; i++ {
			m.Set(rng.Intn(m.Rows()), rng.Intn(m.Cols()), rng.NormFloat64())
		}
		mustCore(tr.Update(bgt))
		merges, projections = merges+tr.Stats().UpperRebuilt, projections+tr.Stats().UpperProjections
		if err := tr.Certify(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if merges == 0 || projections == 0 {
		t.Fatalf("the stream must exercise both routes: %d exact merges, %d refined copies", merges, projections)
	}
}

// TestAuditUpperDetectsCorruption is the certificate's mutation table, at
// a level-1 block, a level-2 node and the root of a healthy tree. Every
// mutation keeps the shapes AuditShapes checks, except the swapped Σ,
// which AuditShapes must reject; each must fail Certify, naming the node.
// The tail ×1.01 and the perturbed baseline apply at level 1, where the
// tail is exact and the input is the block's DynRow baseline; the
// perturbed P above it, where the next refine starts from P.
func TestAuditUpperDetectsCorruption(t *testing.T) {
	targets := []struct {
		name string
		at   func(*Tree) (l, j int)
	}{
		{"level-1 block", func(*Tree) (int, int) { return 0, 1 }},
		{"level-2 node", func(*Tree) (int, int) { return 1, 1 }},
		{"root", func(tr *Tree) (int, int) { return len(tr.levels) - 1, 0 }},
	}
	mutations := []struct {
		name                 string
		level1, upper, shape bool // level-1 only; upper only; AuditShapes must reject it too
		mutate               func(t *testing.T, n *node, m *sparse.DynRow, j int)
	}{
		{"anchor tail halved", false, false, false, func(t *testing.T, n *node, _ *sparse.DynRow, _ int) {
			if n.tail == 0 {
				t.Fatal("node has a zero tail; nothing to corrupt")
			}
			n.tail /= 2
		}},
		{"tail x1.01", true, false, false, func(t *testing.T, n *node, _ *sparse.DynRow, _ int) {
			if n.tail == 0 {
				t.Fatal("node has a zero tail; nothing to corrupt")
			}
			n.tail *= 1.01
		}},
		{"random orthonormal basis", false, false, false, func(_ *testing.T, n *node, _ *sparse.DynRow, _ int) {
			rng := rand.New(rand.NewSource(3))
			u := linalg.NewDense(n.res.U.Rows, n.res.U.Cols)
			for i := range u.Data {
				u.Data[i] = rng.NormFloat64()
			}
			n.res.U = linalg.OrthonormalizeW(u, 1)
		}},
		{"U entry +1e-6", false, false, false, func(_ *testing.T, n *node, _ *sparse.DynRow, _ int) {
			u, r := n.res.U, 0
			for i := 1; i < u.Rows; i++ {
				if math.Abs(u.At(i, 0)) > math.Abs(u.At(r, 0)) {
					r = i
				}
			}
			u.Row(r)[0] += 1e-6
		}},
		{"spectrum entries swapped", false, false, true, func(t *testing.T, n *node, _ *sparse.DynRow, _ int) {
			s := n.res.S
			if len(s) < 2 || s[0] == s[1] {
				t.Fatalf("node spectrum %v has no two distinct values to swap", s)
			}
			s[0], s[1] = s[1], s[0]
		}},
		{"P entry +1e-8 of sigma1", false, true, false, func(_ *testing.T, n *node, _ *sparse.DynRow, _ int) {
			n.p.Row(0)[n.p.Cols/2] += 1e-8 * n.res.S[0]
		}},
		{"baseline value perturbed", true, false, false, func(_ *testing.T, _ *node, m *sparse.DynRow, j int) {
			// Moving an entry and resetting the block's baseline without
			// re-factoring it is the bookkeeping going stale behind the
			// trigger's back.
			lo, _ := m.BlockRange(j)
			m.Set(0, lo, m.Get(0, lo)+1)
			m.MarkRebuilt(j)
		}},
	}
	for _, tg := range targets {
		for _, mu := range mutations {
			if (mu.level1 || mu.upper) && (tg.name == "level-1 block") != mu.level1 {
				continue
			}
			t.Run(tg.name+"/"+mu.name, func(t *testing.T) {
				tr, m := auditedTree(t)
				if err := tr.Certify(); err != nil {
					t.Fatalf("healthy tree failed: %v", err)
				}
				l, j := tg.at(tr)
				mu.mutate(t, tr.levels[l][j], m, j)
				if err := tr.AuditShapes(); (err != nil) != mu.shape {
					t.Fatalf("AuditShapes = %v, want rejection %t", err, mu.shape)
				}
				err := tr.Certify()
				if want := nodeName(l, j, len(tr.levels)); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("Certify = %v, want a failure at the %s", err, want)
				}
			})
		}
	}
}
