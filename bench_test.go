package treesvd

// One testing.B benchmark per table/figure of the paper (DESIGN.md §3
// maps ids to artifacts). Each runs the corresponding harness experiment
// at smoke scale so `go test -bench=.` finishes in minutes; the full-size
// tables come from `go run ./cmd/bench -exp <id>`. Micro-benchmarks of
// the core primitives (push, block SVD, tree build/update) follow.

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/tree-svd/treesvd/internal/bench"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/rsvd"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	o := bench.QuickOptions()
	for i := 0; i < b.N; i++ {
		if err := bench.RunAndPrint(id, o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig3(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkTable4(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkExp2(b *testing.B)      { benchExperiment(b, "exp2") }
func BenchmarkFig5Scale(b *testing.B) { benchExperiment(b, "fig5scale") }
func BenchmarkExp3NC(b *testing.B)    { benchExperiment(b, "exp3nc") }
func BenchmarkExp3LP(b *testing.B)    { benchExperiment(b, "exp3lp") }
func BenchmarkExp4(b *testing.B)      { benchExperiment(b, "exp4") }
func BenchmarkTable7(b *testing.B)    { benchExperiment(b, "table7") }
func BenchmarkExp5(b *testing.B)      { benchExperiment(b, "exp5") }
func BenchmarkFig11(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// --- core primitive micro-benchmarks ---

func benchSetup() (*dataset.Dataset, []int32, *ppr.Proximity) {
	ds := dataset.Generate(dataset.ScaleProfile(dataset.Patent(), 0.25))
	s := ds.SampleSubset(1, 100, 1)
	g := ds.SnapshotGraph(ds.Stream.NumSnapshots() / 2)
	sub := mustTB(ppr.NewSubset(g, s, ppr.Params{Alpha: 0.15, RMax: 1e-4}))
	return ds, s, ppr.NewProximity(sub, ds.Profile.Nodes, 64)
}

func BenchmarkForwardPush(b *testing.B) {
	ds := dataset.Generate(dataset.ScaleProfile(dataset.Patent(), 0.25))
	g := ds.SnapshotGraph(ds.Stream.NumSnapshots())
	e := mustTB(ppr.NewEngine(g, ppr.Params{Alpha: 0.15, RMax: 1e-4}))
	s := ds.SampleSubset(1, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := ppr.NewState(s[i%len(s)], graph.Forward)
		e.Push(st)
	}
}

func BenchmarkDynamicPushBatch(b *testing.B) {
	ds, s, prox := benchSetup()
	mid := ds.Stream.NumSnapshots()/2 + 1
	events := ds.Stream.SnapshotEvents(mid)
	if len(events) > 200 {
		events = events[:200]
	}
	_ = s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must0tb(prox.RepairApplied(bgt, ppr.ApplyAll(prox.Sub.Engine.G, events)))
		b.StopTimer()
		// Re-applying identical inserts is a no-op; flip to keep work real.
		flipped := make([]graph.Event, len(events))
		for j, ev := range events {
			typ := graph.Delete
			if ev.Type == graph.Delete {
				typ = graph.Insert
			}
			flipped[j] = graph.Event{U: ev.U, V: ev.V, Type: typ}
		}
		events = flipped
		b.StartTimer()
	}
}

func BenchmarkTreeBuild(b *testing.B) {
	_, _, prox := benchSetup()
	cfg := core.DefaultConfig(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := mustTB(core.NewTree(prox.M, cfg))
		must0tb(tree.Build(bgt))
	}
}

func BenchmarkTreeLazyUpdateOneBlock(b *testing.B) {
	_, _, prox := benchSetup()
	cfg := core.DefaultConfig(32)
	tree := mustTB(core.NewTree(prox.M, cfg))
	must0tb(tree.Build(bgt))
	rng := rand.New(rand.NewSource(1))
	lo, hi := prox.M.BlockRange(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 50; j++ {
			prox.M.Set(rng.Intn(prox.M.Rows()), lo+rng.Intn(hi-lo), rng.Float64()*5)
		}
		b.StartTimer()
		mustTB(tree.ForceRebuildBlock(bgt, 0))
	}
}

func BenchmarkBlockRandomizedSVD(b *testing.B) {
	_, _, prox := benchSetup()
	blk := prox.M.BlockCSR(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rsvd.Sparse(blk, rsvd.Options{Rank: 32, Seed: int64(i)})
	}
}

func BenchmarkFullMatrixFRPCA(b *testing.B) {
	_, _, prox := benchSetup()
	csr := prox.M.ToCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rsvd.FRPCA(csr, rsvd.Options{Rank: 32, Seed: int64(i)})
	}
}

// BenchmarkApplyEvents applies churn batches at the system benchmark's
// shape (benchmark/plan.go: 8 000 nodes growing toward 9 000, degree 5,
// |S| = 128, d = 16, r_max = 1e-3, two workers) in its two batch sizes,
// and times the first Recommend on every snapshot beside the apply: a
// warm-read median cannot see what a write leaves for that read. Beside
// the times it reports the tree's work per batch from Metrics: level-1
// re-factors, refined copies and exact merges (at a fixed -benchtime
// these counts repeat exactly), the mean block factorization and the
// merge sweep time. cpu-ms/batch is the process's CPU time over the timed
// loop, so it covers each batch's first read too, and so do B/op and
// allocs/op.
func BenchmarkApplyEvents(b *testing.B) {
	const nodes, warm = 8000, 16
	subset := make([]int32, 128)
	for i, v := range rand.New(rand.NewSource(1)).Perm(nodes)[:len(subset)] {
		subset[i] = int32(v)
	}
	slices.Sort(subset)
	for _, batch := range []int{4, 48} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			g, batches := dataset.GenerateChurn(dataset.ChurnProfile{
				Nodes: nodes, MaxNodes: 9000, Degree: 5,
				Batches: warm + b.N, BatchSize: batch,
				DeleteFrac: 0.2, GrowFrac: 0.02, BigBatch: -1,
				Protect: subset, Seed: 1,
			})
			cfg := Defaults()
			cfg.Dim, cfg.RMax, cfg.MaxNodes, cfg.Workers = 16, 1e-3, 9000, 2
			emb := mustTB(New(g, subset, cfg))
			for _, ev := range batches[:warm] {
				mustTB(emb.ApplyEvents(bgt, ev))
			}
			var apply, read time.Duration
			m0 := emb.Metrics()
			b.ReportAllocs()
			b.ResetTimer()
			cpu0 := cpuTime(b)
			for i, ev := range batches[warm:] {
				t0 := time.Now()
				mustTB(emb.ApplyEvents(bgt, ev))
				t1 := time.Now()
				mustTB(emb.Recommend(subset[i%len(subset)], 10))
				apply += t1.Sub(t0)
				read += time.Since(t1)
			}
			cpu := cpuTime(b) - cpu0
			m1, n := emb.Metrics(), float64(b.N)
			b.ReportMetric(apply.Seconds()*1e3/n, "ms/batch")
			b.ReportMetric(cpu.Seconds()*1e3/n, "cpu-ms/batch")
			b.ReportMetric(read.Seconds()*1e6/n, "first-read-us")
			b.ReportMetric(float64(m1.BlocksRebuilt-m0.BlocksRebuilt)/n, "blocks/batch")
			b.ReportMetric(float64(m1.UpperProjections-m0.UpperProjections)/n, "refines/batch")
			b.ReportMetric(float64(m1.UpperMerges-m0.UpperMerges)/n, "exact/batch")
			if f := float64(m1.BlockFactor.Count - m0.BlockFactor.Count); f > 0 {
				b.ReportMetric(spanSum(m1.BlockFactor, m0.BlockFactor).Seconds()*1e6/f, "block-factor-us")
			}
			b.ReportMetric(spanSum(m1.Merge, m0.Merge).Seconds()*1e3/n, "merge-ms/batch")
		})
	}
}

// spanSum is the total time a lifetime span recorded between two reads
// of Metrics.
func spanSum(after, before DurationStats) time.Duration {
	return time.Duration(after.Count)*after.Mean - time.Duration(before.Count)*before.Mean
}

func BenchmarkFutureWork(b *testing.B) { benchExperiment(b, "futurework") }
