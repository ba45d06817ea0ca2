package treesvd

// End-to-end regression gate: run the full dynamic pipeline over a scaled
// Patent-like stream and assert the qualitative properties every release
// must keep — classification quality that *improves* with maintenance,
// lazy updates that actually skip work, and agreement between the
// incremental and from-scratch paths. Skipped under -short.

import (
	"strconv"
	"testing"
	"time"

	"github.com/tree-svd/treesvd/internal/check"
	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/eval"
	"github.com/tree-svd/treesvd/internal/linalg"
)

// TestEndToEndDynamicPipeline runs four subsets (SampleSubset seeds 3–6)
// in parallel and compares mean micro-F1 over them: one subset's 75 test
// nodes move the score in steps of 1.3 points, so a band on a single
// subset flips on any change that moves one node. Over eight subsets
// (seeds 3–10) the mean gap to a from-scratch build measured 7.8 points
// with every upper node merged exactly and 6.6 with the upper-level gate;
// on seeds 3–6 it is 5.3 with the gate. Wall time on a 2-thread x86 box:
// about 10 s.
func TestEndToEndDynamicPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end soak test")
	}
	start := time.Now()
	ds := dataset.Generate(dataset.ScaleProfile(dataset.Patent(), 0.4))
	const subsets = 4
	var first, last, scratch [subsets]float64
	t.Run("subsets", func(t *testing.T) {
		for i := range subsets {
			seed := int64(3 + i)
			t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
				t.Parallel()
				first[i], last[i], scratch[i] = runSubset(t, ds, seed)
			})
		}
	})
	mean := func(v [subsets]float64) float64 { return (v[0] + v[1] + v[2] + v[3]) / subsets }
	f, l, s := mean(first), mean(last), mean(scratch)
	t.Logf("mean micro-F1 %.3f → %.3f, from scratch %.3f; wall time %v", f, l, s, time.Since(start).Round(time.Millisecond))

	// Quality must improve as the stream matures (paper Exp. 3 shape).
	if l < f+0.05 {
		t.Fatalf("quality did not improve across the stream: %.3f → %.3f", f, l)
	}
	if l < 0.70 {
		t.Fatalf("final micro-F1 %.3f below the regression floor 0.70", l)
	}
	// The incremental result must match a from-scratch build on the final
	// graph within a loose quality band (push-tolerance drift only).
	if l < s-0.08 {
		t.Fatalf("incremental quality %.3f trails from-scratch %.3f by more than 8 points", l, s)
	}
}

// runSubset drives one sampled subset through the whole stream and
// returns micro-F1 on the first snapshot, after the last one, and from
// scratch on the last one.
func runSubset(t *testing.T, ds *dataset.Dataset, seed int64) (first, last, scratch float64) {
	stream := ds.Stream
	subset := ds.SampleSubset(1, 150, seed)
	labels := ds.LabelsFor(subset)
	classify := func(rows [][]float64) float64 {
		x := linalg.NewDense(len(rows), len(rows[0]))
		for i, r := range rows {
			copy(x.Row(i), r)
		}
		micro, _ := eval.Classify(x, labels, ds.Profile.Communities, 0.5, eval.DefaultLogRegConfig())
		return micro
	}
	cfg := Defaults()
	cfg.Dim = 32
	cfg.MaxNodes = stream.NumNodes

	emb, err := New(stream.BuildSnapshot(1), subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first = classify(emb.Embedding())
	totalRebuilt, totalSkipped := 0, 0
	for snap := 2; snap <= stream.NumSnapshots(); snap++ {
		rebuilt := mustTB(emb.ApplyEvents(bgt, stream.SnapshotEvents(snap)))
		totalRebuilt += rebuilt
		totalSkipped += emb.LastStats().Skipped
	}
	last = classify(emb.Embedding())
	// The lazy update must actually skip work (paper Exp. 4 mechanism).
	if totalSkipped == 0 || totalRebuilt == 0 {
		t.Fatalf("degenerate lazy update: rebuilt %d, skipped %d", totalRebuilt, totalSkipped)
	}
	if float64(totalSkipped) < 0.5*float64(totalRebuilt+totalSkipped) {
		t.Fatalf("lazy update skipped only %d of %d block checks", totalSkipped, totalRebuilt+totalSkipped)
	}
	// The maintained root stays near the optimal rank-d error of the
	// matrix it embeds: over seeds 3–10 measured 1.053–1.057 with the
	// upper-level gate, 1.049–1.054 with every upper node merged exactly.
	snap := emb.Snapshot()
	_, ratio, err := check.Optimality(snap.m, snap.root.U, cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1.08 {
		t.Errorf("recon_over_opt %.4f above 1.08", ratio)
	}

	fresh, err := New(stream.BuildSnapshot(stream.NumSnapshots()), subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scratch = classify(fresh.Embedding())
	t.Logf("micro-F1 %.3f → %.3f, from scratch %.3f; recon_over_opt %.4f", first, last, scratch, ratio)
	return first, last, scratch
}
