package core_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/tree-svd/treesvd/internal/check"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// TestUpperGateNearOptimal drives the system benchmark's seed-1 input
// (8 000 nodes growing to 9 000, |S| = 128, d = 16, r_max = 1e-3) through
// the lazy pipeline in the churn workload's 600 batches of 48 events and
// the trickle workload's 4 000 batches of 4. At every 100th batch the
// root must stay within 1.0075 of the optimal rank-d error (worst batch
// measured 1.0051 churn / 1.0056 trickle with every upper node merged
// exactly, 1.0053 / 1.0057 through the gate; 19 of 989 and 10 of 748
// dirty nodes merged exactly; 1.0051 / 1.0055 and 16 of 902 and 14 of
// 706 since every node warm-starts from its cache) and pass
// Tree.Certify, and over the stream at least 80 % of the dirty upper
// nodes must publish the gate's refined copy: merging every node exactly
// fails the test. Its blocks are
// wider and taller than d + 8, so level 1 runs the sketched routes — cold
// at Build, warm from the cached basis on every update — which the
// differential harness never reaches: these checkpoints are their
// certificate.
func TestUpperGateNearOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("4 600 benchmark-shape batches")
	}
	for _, tc := range []struct {
		name             string
		batches, perSize int
	}{{"churn", 600, 48}, {"trickle", 4000, 4}} {
		t.Run(tc.name, func(t *testing.T) {
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
				Batches: tc.batches, BatchSize: tc.perSize, DeleteFrac: 0.2, GrowFrac: 0.02, BigBatch: -1,
				Protect: subset, Seed: 1,
			})
			sub, err := ppr.NewSubset(g, subset, ppr.Params{Alpha: 0.15, RMax: 1e-3, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Rank: 16, Branch: 8, Levels: 3, Delta: 0.65, Seed: 1, Workers: 2}
			prox := ppr.NewProximity(sub, maxNodes, cfg.Blocks())
			tr, err := core.NewTree(prox.M, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Build(ctx); err != nil {
				t.Fatal(err)
			}
			met := tr.Metrics()
			merges0, projections0 := met.UpperMerges.Load(), met.UpperProjections.Load()
			worst := 0.0
			for b, batch := range stream {
				if err := prox.ApplyEvents(ctx, batch); err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Update(ctx); err != nil {
					t.Fatal(err)
				}
				if (b+1)%100 != 0 {
					continue
				}
				if err := tr.Certify(); err != nil {
					t.Fatalf("batch %d: %v", b+1, err)
				}
				ratio := reconOverOpt(t, prox.M, tr)
				worst = max(worst, ratio)
				if ratio > 1.0075 {
					t.Errorf("batch %d: recon_over_opt %.4f above 1.0075", b+1, ratio)
				}
			}
			merges, projections := met.UpperMerges.Load()-merges0, met.UpperProjections.Load()-projections0
			t.Logf("%d batches: worst recon_over_opt %.4f; %d exact merges, %d refined copies",
				len(stream), worst, merges, projections)
			if float64(projections) < 0.8*float64(merges+projections) {
				t.Errorf("only %d of %d dirty upper nodes took the refined copy", projections, merges+projections)
			}
		})
	}
}

// reconOverOpt measures the tree's root against the optimal rank-d
// approximation of the matrix it factors.
func reconOverOpt(t *testing.T, m *sparse.DynRow, tr *core.Tree) float64 {
	t.Helper()
	_, ratio, err := check.Optimality(m.ToCSR(), tr.Root().U, tr.Config().Rank)
	if err != nil {
		t.Fatal(err)
	}
	return ratio
}
