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

// linalgDense shortens signatures inside the harness.
type linalgDense = linalg.Dense

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

// runTreeSVDS is Tree-SVD-S: full pipeline from the graph.
func (o Options) runTreeSVDS(g *graph.Graph, s []int32, maxNodes int, needRight bool) embedResult {
	t0 := time.Now()
	prox := o.buildProximity(g, s, maxNodes)
	tree := must(core.NewTree(prox.M, o.treeConfig()))
	must0(tree.Build(bg))
	res := embedResult{Left: tree.Embedding(), Elapsed: time.Since(t0)}
	if needRight {
		res.Right = tree.RightEmbedding()
	}
	return res
}

// runSubsetSTRAP re-factorizes the full proximity matrix from scratch.
func (o Options) runSubsetSTRAP(g *graph.Graph, s []int32, maxNodes int) embedResult {
	t0 := time.Now()
	st := must(baselines.NewSubsetSTRAP(g, s, o.params(), maxNodes, o.Dim, o.Seed))
	r := must(st.Factorize())
	return embedResult{Left: r.Left, Right: r.Right, Elapsed: time.Since(t0)}
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

// runDynPPE builds the hashing-based embedding from scratch.
func (o Options) runDynPPE(g *graph.Graph, s []int32) (*baselines.DynPPE, embedResult) {
	t0 := time.Now()
	// DynPPE tolerates (and the paper gives it) a finer r_max since it
	// skips the SVD; we keep the shared r_max for apples-to-apples PPR.
	d := must(baselines.NewDynPPE(g, s, o.params(), o.Dim, o.Seed))
	return d, embedResult{Left: d.Embedding(), Elapsed: time.Since(t0)}
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
