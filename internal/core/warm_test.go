package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/ppr"
)

// TestLevel1WarmTailNearOptimal replays the system benchmark's seed-1
// churn input (8 000 nodes growing to 9 000, |S| = 128, d = 16,
// r_max = 1e-3, 600 batches of 48 events) and, for every block an update
// re-factors, compares the tail/‖B_j‖ the warm route cached with the cold
// route's on the same block and draw and with the exact rank-d tail. The
// tail is Eqn. 2 budget, so the warm route's mean must sit below the
// cold route's and within 2 % of the optimum (measured: 0.643, 0.653 and
// 0.636 over 614 re-factors). Dropping the Gaussian columns from the warm
// start fails both: 0.652 against 0.649 cold and 0.633 exact.
func TestLevel1WarmTailNearOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("600 benchmark-shape batches")
	}
	ctx := context.Background()
	const nodes, maxNodes, subsetSize = 8000, 9000, 128
	rng := rand.New(rand.NewSource(1))
	subset := make([]int32, subsetSize)
	for i, v := range rng.Perm(nodes)[:subsetSize] {
		subset[i] = int32(v)
	}
	slices.Sort(subset)
	g, stream := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: nodes, MaxNodes: maxNodes, Degree: 5,
		Batches: 600, BatchSize: 48, DeleteFrac: 0.2, GrowFrac: 0.02, BigBatch: -1,
		Protect: subset, Seed: 1,
	})
	sub, err := ppr.NewSubset(g, subset, ppr.Params{Alpha: 0.15, RMax: 1e-3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rank: 16, Branch: 8, Levels: 3, Delta: 0.65, Seed: 1, Workers: 2}
	prox := ppr.NewProximity(sub, maxNodes, cfg.Blocks())
	tr := mustCore(NewTree(prox.M, cfg))
	must0t(tr.Build(ctx))
	var warm, cold, exact float64
	blocks := 0
	for _, batch := range stream {
		must0t(prox.RepairApplied(ctx, ppr.ApplyAll(prox.Sub.Engine.G, batch)))
		before := slices.Clone(tr.levels[0])
		mustCore(tr.Update(ctx))
		for j, n := range tr.levels[0] {
			blk := tr.m.BlockCSR(j)
			if n == before[j] || before[j].res.Rank() == 0 || blk.Cols <= cfg.Rank+8 {
				continue // not re-factored, or not on the warm route
			}
			frob := blk.FrobNorm()
			c := mustCore(tr.factorCSR(blk, j, nil, 1))
			warm, cold = warm+n.tail/frob, cold+c.tail/frob
			exact += linalg.SVDTruncW(blk.ToDense(), cfg.Rank, 1).TailEnergy(frob, cfg.Rank) / frob
			blocks++
		}
	}
	if blocks < 300 {
		t.Fatalf("only %d warm re-factors over the stream", blocks)
	}
	n := float64(blocks)
	warm, cold, exact = warm/n, cold/n, exact/n
	t.Logf("%d update re-factors: mean tail/‖B_j‖ warm %.4f, cold %.4f, exact %.4f", blocks, warm, cold, exact)
	if warm >= cold {
		t.Errorf("warm tail %.4f is not below the cold route's %.4f", warm, cold)
	}
	if warm > 1.02*exact {
		t.Errorf("warm tail %.4f is more than 2 %% above the exact %.4f", warm, exact)
	}
}
