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
	if err := tr.AuditBlocks(); err != nil {
		t.Fatalf("healthy tree failed block audit: %v", err)
	}
}

// TestAuditShapesDetectsCorruption mangles one cached structure at a time.
func TestAuditShapesDetectsCorruption(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Tree)
		want   string
	}{
		"missing level-1 cache": {
			func(tr *Tree) { tr.level1[2] = nil },
			"missing level-1 cache",
		},
		"negative tail energy": {
			func(tr *Tree) { tr.level1[1].tail = -0.5 },
			"tail",
		},
		"NaN tail energy": {
			func(tr *Tree) { tr.level1[1].tail = math.NaN() },
			"tail",
		},
		"truncated upper level": {
			func(tr *Tree) { tr.upper[0] = tr.upper[0][:len(tr.upper[0])-1] },
			"upper level",
		},
		"missing root": {
			func(tr *Tree) { tr.root = nil },
			"root",
		},
		"spectrum not descending": {
			func(tr *Tree) { s := tr.root.res.S; s[0], s[1] = s[1], s[0] },
			"spectrum",
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

// TestAuditBlockSeedReplay verifies the audit's core property: every
// level-1 cache can be reproduced bit-for-bit by re-factoring the block's
// baseline at the recorded sequence number — and a cache whose contents
// were tampered with after the fact no longer can.
func TestAuditBlockSeedReplay(t *testing.T) {
	tr, _ := auditedTree(t)
	for j := range tr.level1 {
		if err := tr.AuditBlock(j); err != nil {
			t.Fatalf("block %d failed seed replay: %v", j, err)
		}
	}

	tr.level1[3].us.Data[0] += 1e-6
	if err := tr.AuditBlock(3); err == nil {
		t.Fatal("tampered Ū cache passed seed replay")
	}
	tr, _ = auditedTree(t)
	tr.level1[3].tail *= 1.01
	if tr.level1[3].tail == 0 {
		t.Skip("block tail is exactly zero; perturbation impossible")
	}
	if err := tr.AuditBlock(3); err == nil {
		t.Fatal("tampered tail passed seed replay")
	}
}

// TestAuditBlockSkipsUnknownProvenance: caches restored from snapshots
// that predate seed recording carry seq = -1 and must be skipped, not
// failed.
func TestAuditBlockSkipsUnknownProvenance(t *testing.T) {
	tr, _ := auditedTree(t)
	tr.level1[0].seq = -1
	tr.level1[0].us.Data[0] += 1 // would fail replay if it ran
	if err := tr.AuditBlock(0); err != nil {
		t.Fatalf("seq = -1 block audited anyway: %v", err)
	}
}

// TestAuditUpperHoldsOverGatedUpdates: the upper-level invariant holds
// after every committed pass of a churn stream whose dirty nodes mix
// exact merges and refined copies.
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
		if err := tr.AuditUpper(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if merges == 0 || projections == 0 {
		t.Fatalf("the stream must exercise both routes: %d exact merges, %d refined copies", merges, projections)
	}
}

// TestAuditUpperDetectsCorruption: a halved anchor tail and a random
// orthonormal basis keep every shape the cheap audit checks, and must
// each fail AuditUpper, at a level-2 node and at the root.
func TestAuditUpperDetectsCorruption(t *testing.T) {
	nodes := map[string]func(*Tree) *upperNode{
		"level-2 node": func(tr *Tree) *upperNode { return tr.upper[0][1] },
		"root":         func(tr *Tree) *upperNode { return tr.root },
	}
	mutations := map[string]func(*upperNode, *rand.Rand){
		"anchor tail halved": func(n *upperNode, _ *rand.Rand) { n.tail /= 2 },
		"random orthonormal basis": func(n *upperNode, rng *rand.Rand) {
			u := linalg.NewDense(n.res.U.Rows, n.res.U.Cols)
			for i := range u.Data {
				u.Data[i] = rng.NormFloat64()
			}
			n.res.U = linalg.Orthonormalize(u)
		},
	}
	for nodeName, node := range nodes {
		for mutName, mutate := range mutations {
			t.Run(nodeName+"/"+mutName, func(t *testing.T) {
				tr, _ := auditedTree(t)
				if err := tr.AuditUpper(); err != nil {
					t.Fatalf("healthy tree failed: %v", err)
				}
				n := node(tr)
				if n.tail == 0 {
					t.Fatal("node has a zero anchor tail; nothing to corrupt")
				}
				mutate(n, rand.New(rand.NewSource(3)))
				if err := tr.AuditShapes(); err != nil {
					t.Fatalf("the mutation broke a shape, not the invariant: %v", err)
				}
				if err := tr.AuditUpper(); err == nil || !strings.Contains(err.Error(), "misses its children") {
					t.Fatalf("AuditUpper = %v, want a miss of the (1+η)·t bound", err)
				}
			})
		}
	}
}
