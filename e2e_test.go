package treesvd

// End-to-end regression gate: run the full dynamic pipeline over a scaled
// Patent-like stream and assert the qualitative properties every release
// must keep — classification quality that *improves* with maintenance,
// lazy updates that actually skip work, and agreement between the
// incremental and from-scratch paths. Skipped under -short.

import (
	"testing"

	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/eval"
	"github.com/tree-svd/treesvd/internal/linalg"
)

func TestEndToEndDynamicPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end soak test")
	}
	ds := dataset.Generate(dataset.ScaleProfile(dataset.Patent(), 0.4))
	stream := ds.Stream
	subset := ds.SampleSubset(1, 150, 3)
	labels := ds.LabelsFor(subset)
	classes := ds.Profile.Communities

	cfg := Defaults()
	cfg.Dim = 32
	cfg.MaxNodes = stream.NumNodes
	emb, err := New(stream.BuildSnapshot(1), subset, cfg)
	if err != nil {
		t.Fatal(err)
	}

	classify := func(rows [][]float64) float64 {
		x := linalg.NewDense(len(rows), len(rows[0]))
		for i, r := range rows {
			copy(x.Row(i), r)
		}
		micro, _ := eval.Classify(x, labels, classes, 0.5, eval.DefaultLogRegConfig())
		return micro
	}

	first := classify(emb.Embedding())
	totalRebuilt, totalSkipped := 0, 0
	for snap := 2; snap <= stream.NumSnapshots(); snap++ {
		rebuilt := mustTB(emb.ApplyEvents(bgt, stream.SnapshotEvents(snap)))
		totalRebuilt += rebuilt
		totalSkipped += emb.LastStats().Skipped
	}
	last := classify(emb.Embedding())

	// Quality must improve as the stream matures (paper Exp. 3 shape).
	if last < first+0.05 {
		t.Fatalf("quality did not improve across the stream: %.3f → %.3f", first, last)
	}
	if last < 0.70 {
		t.Fatalf("final micro-F1 %.3f below the regression floor 0.70", last)
	}
	// The lazy update must actually skip work (paper Exp. 4 mechanism).
	if totalSkipped == 0 || totalRebuilt == 0 {
		t.Fatalf("degenerate lazy update: rebuilt %d, skipped %d", totalRebuilt, totalSkipped)
	}
	if float64(totalSkipped) < 0.5*float64(totalRebuilt+totalSkipped) {
		t.Fatalf("lazy update skipped only %d of %d block checks", totalSkipped, totalRebuilt+totalSkipped)
	}

	// The incremental result must match a from-scratch build on the final
	// graph within a loose quality band (push-tolerance drift only).
	scratch, err := New(stream.BuildSnapshot(stream.NumSnapshots()), subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sf := classify(scratch.Embedding())
	// The 1e-9 slack lets an exact 8-point gap pass: 65/75 − 0.08 rounds
	// one ulp above 59/75.
	if last < sf-0.08-1e-9 {
		t.Fatalf("incremental quality %.3f trails from-scratch %.3f by more than 8 points", last, sf)
	}
}
