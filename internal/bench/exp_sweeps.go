package bench

import (
	"fmt"
	"math"
	"time"

	"github.com/tree-svd/treesvd/internal/baselines"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/hsvd"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// RunFig11 reproduces Figure 11: Tree-SVD-S vs HSVD with varying number
// of first-level sub-matrices b. HSVD's cost grows with b while
// Tree-SVD-S stays flat.
func RunFig11(o Options) *Table {
	t := &Table{
		Title:  "Figure 11: varying b — HSVD vs Tree-SVD-S (time / Micro-F1)",
		Header: []string{"Dataset", "b", "HSVD time", "HSVD F1", "Tree time", "Tree F1"},
	}
	for _, prof := range []dataset.Profile{dataset.Patent(), dataset.MagAuthors()} {
		ds, prox, s := o.sharedProximity(prof)
		labels := ds.LabelsFor(s)
		cls := ds.Profile.Communities
		csr := prox.M.ToCSR()
		for _, b := range []int{16, 64, 256} {
			t0 := time.Now()
			hr := hsvd.Factorize(csr, hsvd.Config{Rank: o.Dim, Blocks: b, Branch: 8, Workers: o.Workers})
			hTime := time.Since(t0)
			hF1 := o.classify(hr.USqrtS(), labels, cls, o.TrainRatio)

			// Match the tree shape to b: k=8, q = 1+log_k(b).
			cfg := o.treeConfig()
			cfg.Levels = 1 + int(math.Round(math.Log(float64(b))/math.Log(float64(cfg.Branch))))
			if cfg.Levels < 2 {
				cfg.Levels = 2
			}
			m := rebucket(prox, b)
			t0 = time.Now()
			tree := must(core.NewTree(m, cfg))
			must0(tree.Build(bg))
			tTime := time.Since(t0)
			tF1 := o.classify(tree.Embedding(), labels, cls, o.TrainRatio)
			t.AddRow(prof.Name, fmt.Sprint(b), dur(hTime), pct(hF1), dur(tTime), pct(tF1))
		}
	}
	t.Notes = append(t.Notes, "expected shape: HSVD time grows steeply with b; Tree-SVD-S stays flat at equal F1")
	return t
}

// rebucket copies a proximity matrix into a DynRow with a different block
// count (Fig. 11 sweeps b).
func rebucket(prox *ppr.Proximity, b int) *sparse.DynRow {
	src := prox.M
	m := sparse.NewDynRow(src.Rows(), src.Cols(), b)
	for r := 0; r < src.Rows(); r++ {
		for _, c := range src.RowColumns(r) {
			m.Set(r, int(c), src.Get(r, int(c)))
		}
	}
	return m
}

// RunFig12 reproduces Figure 12: Subset-STRAP vs Tree-SVD-S with varying
// r_max (quality and embedding time).
func RunFig12(o Options) *Table {
	t := &Table{
		Title:  "Figure 12: varying r_max — Subset-STRAP vs Tree-SVD-S",
		Header: []string{"Dataset", "r_max", "STRAP time", "STRAP F1", "Tree time", "Tree F1"},
	}
	for _, prof := range []dataset.Profile{dataset.Patent(), dataset.Wikipedia()} {
		ds := o.load(prof)
		g := ds.SnapshotGraph(ds.Stream.NumSnapshots())
		s := ds.SampleSubset(1, o.SubsetSize, o.Seed)
		labels := ds.LabelsFor(s)
		cls := ds.Profile.Communities
		for _, rmax := range []float64{1e-3, 3e-4, 1e-4, 3e-5} {
			oo := o
			oo.RMax = rmax
			sRes := oo.once(oo.subsetSTRAP(), g, s, ds.Profile.Nodes)
			tRes := oo.once(oo.treeSVDS(), g, s, ds.Profile.Nodes)
			t.AddRow(prof.Name, fmt.Sprintf("%.0e", rmax),
				dur(sRes.Elapsed), pct(o.classify(sRes.Left, labels, cls, o.TrainRatio)),
				dur(tRes.Elapsed), pct(o.classify(tRes.Left, labels, cls, o.TrainRatio)))
		}
	}
	t.Notes = append(t.Notes, "expected shape: both degrade as r_max grows; Tree-SVD-S faster at equal quality")
	return t
}

// RunFig13 reproduces Figure 13: dynamic Tree-SVD quality with varying
// lazy-update threshold δ.
func RunFig13(o Options) *Table {
	t := &Table{
		Title:  "Figure 13: varying δ — dynamic Tree-SVD after batch updates",
		Header: []string{"Dataset", "delta", "AvgUpdate", "BlocksRebuilt", "Micro-F1"},
	}
	for _, prof := range ncDatasets() {
		ds := o.load(prof)
		s := ds.SampleSubset(1, o.SubsetSize, o.Seed)
		labels := ds.LabelsFor(s)
		cls := ds.Profile.Communities
		plan := o.planBatches(ds, exp4NumBatches, exp4Churn, nil)
		for _, delta := range []float64{0.05, 0.2, 0.45, 0.65, 0.9} {
			cfg := o.treeConfig()
			cfg.Delta = delta
			r := o.stream(o.treeSVD(cfg, false), plan, s, ds.Profile.Nodes)
			t.AddRow(prof.Name, fmt.Sprintf("%.2f", delta), dur(r.avgUpdate()), fmt.Sprint(r.rebuilt),
				pct(o.classify(r.left(), labels, cls, o.TrainRatio)))
		}
	}
	t.Notes = append(t.Notes, "expected shape: smaller δ → more rebuilds, slightly better F1")
	return t
}

// RunFig14 reproduces Figure 14: cumulative maintenance cost of dynamic
// Tree-SVD vs rebuilding Tree-SVD-S as update batches accumulate — the
// cut-off analysis.
func RunFig14(o Options) *Table {
	t := &Table{
		Title:  "Figure 14: update-size cut-off — cumulative time, Tree-SVD vs Tree-SVD-S",
		Header: []string{"Dataset", "Batches", "Events", "Tree-SVD cum", "Tree-SVD-S cum"},
	}
	for _, prof := range []dataset.Profile{dataset.Patent(), dataset.YouTube()} {
		ds := o.load(prof)
		s := ds.SampleSubset(1, o.SubsetSize, o.Seed)
		plan := o.planBatches(ds, 32, 0.12, nil)
		dyn := o.stream(o.treeSVD(o.treeConfig(), false), plan, s, ds.Profile.Nodes)
		rebuild := o.stream(o.treeSVDS(), plan, s, ds.Profile.Nodes)
		events := 0
		for i := range dyn.cum {
			events += len(plan.batches[i])
			if n := i + 1; n&(n-1) == 0 {
				t.AddRow(prof.Name, fmt.Sprint(n), fmt.Sprint(events), dur(dyn.cum[i]), dur(rebuild.cum[i]))
			}
		}
	}
	t.Notes = append(t.Notes, "expected shape: Tree-SVD cumulative cost stays below Tree-SVD-S well past 10% of edges changed")
	return t
}

// RunAblations benches a design choice beyond the paper's sweeps: the
// Frobenius (Eqn. 2) trigger vs a naive nnz-count trigger.
func RunAblations(o Options) *Table {
	t := &Table{
		Title:  "Ablations: lazy-update trigger",
		Header: []string{"Variant", "Start", "AvgUpdate", "Rebuilds", "Micro-F1"},
	}
	prof := dataset.Patent()
	ds := o.load(prof)
	s := ds.SampleSubset(1, o.SubsetSize, o.Seed)
	labels := ds.LabelsFor(s)
	cls := ds.Profile.Communities
	plan := o.planBatches(ds, exp4NumBatches, exp4Churn, nil)

	for _, v := range []struct {
		name       string
		nnzTrigger bool
	}{{"gaussian+frobenius", false}, {"gaussian+nnz-trigger", true}} {
		r := o.stream(o.treeSVD(o.treeConfig(), v.nnzTrigger), plan, s, ds.Profile.Nodes)
		t.AddRow(v.name, dur(r.start), dur(r.avgUpdate()), fmt.Sprint(r.rebuilt),
			pct(o.classify(r.left(), labels, cls, o.TrainRatio)))
	}
	t.Notes = append(t.Notes, "Eqn. 2's Frobenius trigger is the guaranteed one; nnz trigger is the heuristic the paper argues against")
	return t
}

// RunFutureWork implements the paper's conclusion-section direction:
// "if we focus on a subset of users with similar properties, e.g., in the
// same age group or same city, the performance of subset embedding also
// tends to improve over global counterparts." We compare the
// subset-over-global quality gap for a random subset against a coherent
// one (drawn from three communities, the "same city" analogue).
func RunFutureWork(o Options) *Table {
	t := &Table{
		Title:  "Future work (§7): coherent vs random subsets — subset-over-global gap",
		Header: []string{"Dataset", "Subset", "Global-STRAP F1", "Tree-SVD-S F1", "Gap"},
	}
	for _, prof := range []dataset.Profile{dataset.Patent(), dataset.MagAuthors()} {
		ds := o.load(prof)
		g := ds.SnapshotGraph(ds.Stream.NumSnapshots())
		type subsetKind struct {
			name  string
			nodes []int32
		}
		kinds := []subsetKind{
			{"random", ds.SampleSubset(1, o.SubsetSize, o.Seed)},
			{"coherent", ds.SampleSubsetFromCommunities(1, o.SubsetSize, o.Seed, 0, 1, 2)},
		}
		// Global embedding computed once per dataset and reused.
		gs := baselines.NewGlobalSTRAP(g, ppr.Params{Alpha: o.Alpha, RMax: o.GlobalRMax}, o.Dim, o.Seed)
		globalEmb := must(gs.Factorize()).Left
		for _, k := range kinds {
			labels := ds.LabelsFor(k.nodes)
			classes := ds.Profile.Communities
			gF1 := o.classify(baselines.SubsetRows(globalEmb, k.nodes), labels, classes, o.TrainRatio)
			sRes := o.once(o.treeSVDS(), g, k.nodes, ds.Profile.Nodes)
			sF1 := o.classify(sRes.Left, labels, classes, o.TrainRatio)
			t.AddRow(prof.Name, fmt.Sprintf("%s(|S|=%d)", k.name, len(k.nodes)),
				pct(gF1), pct(sF1), fmt.Sprintf("%+.2f", 100*(sF1-gF1)))
		}
	}
	t.Notes = append(t.Notes, "expected shape: the subset-over-global gap holds (or grows) for property-coherent subsets")
	return t
}
