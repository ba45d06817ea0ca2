package bench

import (
	"context"
	"math"
	"time"

	"github.com/tree-svd/treesvd/internal/baselines"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// bg is the harness-wide context: experiments always run to completion.
var bg = context.Background()

// must unwraps (v, err) results inside the harness — an experiment cannot
// proceed past a failed pipeline stage, so errors abort the run.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// must0 is must for error-only results.
func must0(err error) {
	if err != nil {
		panic(err)
	}
}

// Options configure a harness run. Zero value is unusable; use
// DefaultOptions (full experiment sizes) or QuickOptions (smoke sizes for
// testing.B and CI).
type Options struct {
	// SubsetSize is |S|.
	SubsetSize int
	// Dim is the embedding dimension d.
	Dim int
	// Alpha and RMax configure PPR for the subset methods.
	Alpha, RMax float64
	// GlobalRMax is the coarser push threshold Global-STRAP can afford
	// when covering all n sources.
	GlobalRMax float64
	// TrainRatio for node classification (Exp. 1/2 use 0.5).
	TrainRatio float64
	// Scale shrinks dataset profiles (1 = full harness size).
	Scale float64
	// Seed drives subset sampling, splits and sketches.
	Seed int64
	// Workers parallelizes PPR and factorization work (0/1 = sequential,
	// the default so timings reflect single-core algorithmic cost).
	Workers int
}

// DefaultOptions mirror the paper's setup scaled per DESIGN.md §4:
// |S|=300 (paper 3000), d=32 (paper 128), b=64, q=3, k=8, δ=0.65.
func DefaultOptions() Options {
	return Options{SubsetSize: 300, Dim: 32, Alpha: 0.15, RMax: 1e-4,
		GlobalRMax: 3e-2, TrainRatio: 0.5, Scale: 1, Seed: 1}
}

// QuickOptions shrink everything for smoke runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.SubsetSize = 80
	o.Dim = 16
	o.Scale = 0.15
	return o
}

func (o Options) params() ppr.Params {
	return ppr.Params{Alpha: o.Alpha, RMax: o.RMax, Workers: o.Workers}
}

func (o Options) treeConfig() core.Config {
	cfg := core.DefaultConfig(o.Dim)
	cfg.Seed = o.Seed
	cfg.Workers = o.Workers
	return cfg
}

// load generates a dataset profile at the harness scale.
func (o Options) load(p dataset.Profile) *dataset.Dataset {
	if o.Scale != 1 {
		p = dataset.ScaleProfile(p, o.Scale)
	}
	return dataset.Generate(p)
}

// embedResult is one method's output on one graph state.
type embedResult struct {
	// Left is the |S|×d subset embedding.
	Left *linalg.Dense
	// Right is the n×d right-factor embedding (nil for same-space
	// methods like RandNE and DynPPE).
	Right *linalg.Dense
	// Elapsed covers proximity construction + factorization.
	Elapsed time.Duration
}

// buildProximity runs the shared PPR pipeline (forward + reverse push,
// log transform) used by Subset-STRAP and Tree-SVD.
func (o Options) buildProximity(g *graph.Graph, s []int32, maxNodes int) *ppr.Proximity {
	sub := must(ppr.NewSubset(g, s, o.params()))
	return ppr.NewProximity(sub, maxNodes, o.treeConfig().Blocks())
}

// method is one entry of the streamed-method table: a name and an
// untimed start that builds the method's state on a graph.
type method struct {
	name  string
	start func(g *graph.Graph, s []int32, maxNodes int) streamed
}

// streamed is a started method: its timed per-batch step, split into PPR
// maintenance (apply) and re-factorization (factor, nil for a method with
// none), and its current factors (right is nil for a same-space method).
type streamed struct {
	apply       func(b []graph.Event)
	factor      func() (rebuilt int)
	left, right func() *linalg.Dense
}

// dynPPE is the hashing-based DynPPE: its ApplyEvents re-hashes the
// repaired PPR entries, with no factorization step.
func (o Options) dynPPE() method {
	return method{"DynPPE", func(g *graph.Graph, s []int32, _ int) streamed {
		// DynPPE tolerates (and the paper gives it) a finer r_max since it
		// skips the SVD; we keep the shared r_max for apples-to-apples PPR.
		d := must(baselines.NewDynPPE(g, s, o.params(), o.Dim, o.Seed))
		return streamed{apply: func(b []graph.Event) { must0(d.ApplyEvents(bg, b)) }, left: d.Embedding}
	}}
}

// subsetSTRAP maintains the proximity matrix and re-factorizes it from
// scratch with STRAP after every batch.
func (o Options) subsetSTRAP() method {
	return method{"Subset-STRAP", func(g *graph.Graph, s []int32, maxNodes int) streamed {
		prox := o.buildProximity(g, s, maxNodes)
		var r *baselines.STRAPResult
		return streamed{
			apply: func(b []graph.Event) { must0(prox.Sub.ApplyEvents(bg, b)); prox.Refresh() },
			factor: func() int {
				r = must(baselines.STRAP(prox.M.ToCSR(), o.Dim, o.Seed, o.Workers))
				return 0
			},
			left:  func() *linalg.Dense { return r.Left },
			right: func() *linalg.Dense { return r.Right },
		}
	}}
}

// treeSVDS is Tree-SVD-S: the proximity matrix maintained, the tree
// rebuilt from scratch (Build) after every batch.
func (o Options) treeSVDS() method {
	return method{"Tree-SVD-S", func(g *graph.Graph, s []int32, maxNodes int) streamed {
		prox := o.buildProximity(g, s, maxNodes)
		tree := must(core.NewTree(prox.M, o.treeConfig()))
		return treeStreamed(prox, tree, func() int {
			must0(tree.Build(bg))
			return tree.Stats().Level1Rebuilt
		})
	}}
}

// treeSVD is dynamic Tree-SVD under cfg (its δ included): built once,
// then the Eqn. 2 lazy trigger (Update) after every batch. nnzTrigger
// swaps Eqn. 2 for the ablation's naive trigger: re-factor a block when
// its nnz moved by more than 10% since its last rebuild (no error
// guarantee).
func (o Options) treeSVD(cfg core.Config, nnzTrigger bool) method {
	return method{"Tree-SVD", func(g *graph.Graph, s []int32, maxNodes int) streamed {
		prox := o.buildProximity(g, s, maxNodes)
		tree := must(core.NewTree(prox.M, cfg))
		must0(tree.Build(bg))
		if !nnzTrigger {
			return treeStreamed(prox, tree, func() int { return must(tree.Update(bg)) })
		}
		base := blockNNZs(prox)
		return treeStreamed(prox, tree, func() int {
			rebuilt := 0
			for j, nnz := range blockNNZs(prox) {
				if nnz < base[j]*9/10 || nnz > base[j]*11/10 {
					rebuilt += must(tree.ForceRebuildBlock(bg, j))
					base[j] = nnz
				}
			}
			return rebuilt
		})
	}}
}

// treeStreamed is the step shared by both tree methods: proximity
// maintenance, then factor on the tree.
func treeStreamed(prox *ppr.Proximity, tree *core.Tree, factor func() int) streamed {
	return streamed{
		apply:  func(b []graph.Event) { must0(prox.Sub.ApplyEvents(bg, b)); prox.Refresh() },
		factor: factor,
		left:   tree.Embedding,
		right:  tree.RightEmbedding,
	}
}

func blockNNZs(prox *ppr.Proximity) []int {
	out := make([]int, prox.M.NumBlocks())
	for j := range out {
		out[j] = prox.M.BlockNNZ(j)
	}
	return out
}

// once is m's static embedding: its start and one factorization, timed
// together.
func (o Options) once(m method, g *graph.Graph, s []int32, maxNodes int) embedResult {
	t0 := time.Now()
	st := m.start(g, s, maxNodes)
	if st.factor != nil {
		st.factor()
	}
	res := embedResult{Left: st.left(), Elapsed: time.Since(t0)}
	if st.right != nil {
		res.Right = st.right()
	}
	return res
}

// streamRun is one method streamed through a batch plan.
type streamRun struct {
	streamed
	// start is the untimed start's wall time.
	start time.Duration
	// cum[i] is the apply+factor time of batches 0..i.
	cum []time.Duration
	// factorTime is the factor share of cum's last entry.
	factorTime time.Duration
	// rebuilt sums the level-1 blocks every factor step re-factored.
	rebuilt int
}

// stream starts m on a clone of the plan's start graph and runs its
// per-batch step over every batch.
func (o Options) stream(m method, plan batchPlan, s []int32, maxNodes int) streamRun {
	g := plan.startGraph.Clone()
	t0 := time.Now()
	r := streamRun{streamed: m.start(g, s, maxNodes)}
	r.start = time.Since(t0)
	var total time.Duration
	for _, b := range plan.batches {
		t0 = time.Now()
		r.apply(b)
		if r.factor != nil {
			t1 := time.Now()
			r.rebuilt += r.factor()
			r.factorTime += time.Since(t1)
		}
		total += time.Since(t0)
		r.cum = append(r.cum, total)
	}
	return r
}

// avgUpdate is the mean apply+factor time per batch.
func (r streamRun) avgUpdate() time.Duration {
	return r.cum[len(r.cum)-1] / time.Duration(len(r.cum))
}

// runGlobalSTRAP embeds every node with a coarser budget and extracts S.
func (o Options) runGlobalSTRAP(g *graph.Graph, s []int32) embedResult {
	t0 := time.Now()
	gs := baselines.NewGlobalSTRAP(g, ppr.Params{Alpha: o.Alpha, RMax: o.GlobalRMax}, o.Dim, o.Seed)
	r := must(gs.Factorize())
	return embedResult{
		Left:    baselines.SubsetRows(r.Left, s),
		Right:   r.Right,
		Elapsed: time.Since(t0),
	}
}

// runFREDE sketches the forward-PPR rows. Unlike the STRAP-family methods
// FREDE's original formulation factorizes the plain PPR matrix — no
// transpose-proximity (reverse-push) component — which is one of the
// reasons the paper finds it behind the MF methods.
func (o Options) runFREDE(g *graph.Graph, s []int32, maxNodes int) embedResult {
	t0 := time.Now()
	sub := must(ppr.NewSubsetDirs(g, s, o.params(), true, false))
	b := sparse.NewBuilder(len(s), maxNodes)
	for i := range s {
		sub.Fwd[i].Each(func(v int32, pv, _ float64) {
			if arg := pv / o.RMax; arg > 1 {
				b.Add(i, int(v), math.Log(arg))
			}
		})
	}
	r := baselines.FREDE(b.Build(), o.Dim)
	return embedResult{Left: r.Left, Right: r.Right, Elapsed: time.Since(t0)}
}

// runRandNE projects the adjacency; the same space serves both LP sides.
func (o Options) runRandNE(g *graph.Graph, s []int32) embedResult {
	t0 := time.Now()
	emb := baselines.RandNE(g, baselines.DefaultRandNEConfig(o.Dim, o.Seed))
	return embedResult{Left: baselines.SubsetRows(emb, s), Right: emb, Elapsed: time.Since(t0)}
}
