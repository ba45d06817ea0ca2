package core_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/rsvd"
)

// TestLevel1TailNearOptimal builds the system benchmark's seed-1 input
// (8 000 nodes growing to 9 000, |S| = 128, d = 16, r_max = 1e-3) and
// compares, over every non-empty level-1 block, the mean tail/‖B_j‖ the
// production route caches with the exact rank-d tail and with a
// zero-iteration sketch. The tail is Eqn. 2 budget, so production must sit
// within 5 % of the optimum and clearly below the zero-iteration route:
// reverting the level-1 power-iteration constant fails this test.
func TestLevel1TailNearOptimal(t *testing.T) {
	const nodes, maxNodes, subsetSize = 8000, 9000, 128
	rng := rand.New(rand.NewSource(1))
	subset := make([]int32, subsetSize)
	for i, v := range rng.Perm(nodes)[:subsetSize] {
		subset[i] = int32(v)
	}
	slices.Sort(subset)
	g, _ := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: nodes, MaxNodes: maxNodes, Degree: 5,
		Batches: 1, BatchSize: 1, DeleteFrac: 0.2, GrowFrac: 0.02, BigBatch: -1,
		Protect: subset, Seed: 1,
	})
	sub, err := ppr.NewSubset(g, subset, ppr.Params{Alpha: 0.15, RMax: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Rank: 16, Branch: 8, Levels: 3, Delta: 0.65, Seed: 1}
	m := ppr.NewProximity(sub, maxNodes, cfg.Blocks()).M
	tr, err := core.NewTree(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	var prod, exact, zero float64
	blocks := 0
	for j, n := range tr.Snapshot().Levels[0] {
		blk := m.BlockCSR(j)
		if blk.NNZ() == 0 {
			continue
		}
		blocks++
		frob := blk.FrobNorm()
		prod += n.Tail / frob
		exact += linalg.SVDTruncW(blk.ToDense(), cfg.Rank, 1).TailEnergy(frob, cfg.Rank) / frob
		res, err := rsvd.Sparse(blk, rsvd.Options{Rank: cfg.Rank, Seed: cfg.Seed + int64(j)})
		if err != nil {
			t.Fatal(err)
		}
		zero += res.TailEnergy(frob, cfg.Rank) / frob
	}
	if blocks == 0 {
		t.Fatal("no non-empty level-1 block")
	}
	n := float64(blocks)
	prod, exact, zero = prod/n, exact/n, zero/n
	t.Logf("%d blocks: mean tail/‖B_j‖ production %.4f, exact %.4f, zero iterations %.4f", blocks, prod, exact, zero)
	if prod > 1.05*exact {
		t.Errorf("production tail %.4f is more than 5 %% above the exact %.4f", prod, exact)
	}
	if prod >= zero-0.05 {
		t.Errorf("production tail %.4f is not 0.05 below the zero-iteration tail %.4f", prod, zero)
	}
}
