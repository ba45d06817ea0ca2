package bench

import (
	"fmt"
	"time"

	"github.com/tree-svd/treesvd/internal/check"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/dataset"
)

// RunChurnStress drives the dynamic pipeline through the correctness
// harness's adversarial churn streams — the same dataset.GenerateChurn
// profiles the differential fuzzer uses, scaled up — with the
// internal/check invariant auditors running after every batch, the set
// Embedder.Audit runs. It reports the cost of
// the audited dynamic path (AvgUpdate includes the audits) next to the
// final divergence from a fresh rebuild.
func RunChurnStress(o Options) *Table {
	t := &Table{
		Title:  "Churn stress: audited dynamic path on adversarial event streams",
		Header: []string{"Profile", "Events", "AvgUpdate", "RelErr", "RelErrFresh"},
	}
	scale := func(n int) int { return max(8, int(float64(n)*o.Scale)) }
	profiles := []dataset.ChurnProfile{
		{
			Nodes: scale(600), MaxNodes: scale(600) + 40, Degree: 4,
			Batches: 8, BatchSize: scale(200),
			SelfLoopFrac: 0.15, DeleteFrac: 0.2, DupFrac: 0.1, MissFrac: 0.1, GrowFrac: 0.05,
			Seed: o.Seed,
		},
		{
			Nodes: scale(600), MaxNodes: scale(600), Degree: 4,
			Batches: 8, BatchSize: scale(120),
			SelfLoopFrac: 0.3, DeleteFrac: 0.3, DupFrac: 0.15, MissFrac: 0.15,
			BigBatch: 4, BigBatchSize: scale(2000),
			Seed: o.Seed + 1,
		},
	}
	for i, p := range profiles {
		subset := make([]int32, 0, min(o.SubsetSize, p.Nodes/2))
		for v := int32(0); len(subset) < cap(subset); v += 2 {
			subset = append(subset, v)
		}
		p.Protect = subset
		initial, batches := dataset.GenerateChurn(p)

		cfg := o.treeConfig()
		prox := o.buildProximity(initial.Clone(), subset, p.MaxNodes)
		sub := prox.Sub
		tree := must(core.NewTree(prox.M, cfg))
		must0(tree.Build(bg))

		var events int
		var dt time.Duration
		for _, b := range batches {
			events += len(b)
			t0 := time.Now()
			if sub.RebuildThreshold(len(b)) {
				sub.Engine.G.ApplyAll(b)
				must0(sub.Rebuild(bg))
				prox.RefreshAll()
				must0(tree.Build(bg))
			} else {
				must0(prox.Sub.ApplyEvents(bg, b))
				prox.Refresh()
				must(tree.Update(bg))
			}
			// The auditors Embedder.Audit runs, timed as part of the update.
			must0(check.PPRSubset(sub))
			must0(prox.M.AuditRecount())
			must0(tree.AuditShapes())
			dt += time.Since(t0)
			initial.ApplyAll(b)
		}

		freshProx := o.buildProximity(initial, subset, p.MaxNodes)
		freshTree := must(core.NewTree(freshProx.M, cfg))
		must0(freshTree.Build(bg))

		relErr := tree.ReconstructionError() / prox.M.FrobNorm()
		relFresh := freshTree.ReconstructionError() / freshProx.M.FrobNorm()
		t.AddRow(fmt.Sprintf("churn-%d", i+1), fmt.Sprint(events),
			dur(dt/time.Duration(len(batches))),
			fmt.Sprintf("%.4f", relErr), fmt.Sprintf("%.4f", relFresh))
	}
	return t
}
