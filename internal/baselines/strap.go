package baselines

import (
	"context"
	"math"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/rsvd"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// STRAPResult bundles the left (|rows|×d) and right (n×d) embeddings of a
// STRAP-style factorization, X = U√Σ and Y = V√Σ.
type STRAPResult struct {
	Left  *linalg.Dense
	Right *linalg.Dense
	Root  *linalg.SVDResult
}

// strapFactor applies the randomized truncated SVD to a proximity CSR and
// extracts both embedding sides.
func strapFactor(m *sparse.CSR, dim int, opts rsvd.Options) (*STRAPResult, error) {
	opts.Rank = dim
	res, err := rsvd.Sparse(m, opts)
	if err != nil {
		return nil, err
	}
	sq := make([]float64, len(res.S))
	for i, s := range res.S {
		if s > 0 {
			sq[i] = math.Sqrt(s)
		}
	}
	right := res.V.Clone().MulDiag(sq)
	return &STRAPResult{Left: res.USqrtS(), Right: right, Root: res}, nil
}

// SubsetSTRAP extends STRAP to the subset setting (Section 2.2): build the
// log-transformed PPR proximity matrix for the rows of S only, then take a
// full truncated SVD from scratch. It is the quality reference that
// Tree-SVD matches at a fraction of the (re)computation cost.
type SubsetSTRAP struct {
	Prox *ppr.Proximity
	Dim  int
	Seed int64
}

// NewSubsetSTRAP builds the proximity state for subset s over g.
func NewSubsetSTRAP(g *graph.Graph, s []int32, params ppr.Params, maxNodes, dim int, seed int64) (*SubsetSTRAP, error) {
	sub, err := ppr.NewSubset(g, s, params)
	if err != nil {
		return nil, err
	}
	// Block count is irrelevant for STRAP itself; reuse a coarse split.
	return &SubsetSTRAP{Prox: ppr.NewProximity(sub, maxNodes, 16), Dim: dim, Seed: seed}, nil
}

// ApplyEvents advances the proximity matrix incrementally (the PPR side is
// shared with Tree-SVD; only the factorization differs).
func (s *SubsetSTRAP) ApplyEvents(ctx context.Context, events []graph.Event) error {
	return s.Prox.ApplyEvents(ctx, events)
}

// Factorize runs the from-scratch truncated SVD of the current proximity
// matrix — the step Subset-STRAP must redo in full at every snapshot.
func (s *SubsetSTRAP) Factorize() (*STRAPResult, error) {
	return strapFactor(s.Prox.M.ToCSR(), s.Dim, rsvd.Options{Seed: s.Seed, PowerIters: 2})
}

// GlobalSTRAP is the whole-graph STRAP: the proximity matrix covers every
// node as a source, with a correspondingly coarser per-source push budget.
// Its subset rows are extracted after the global factorization — the
// configuration shown in Table 1 to lose badly to subset methods.
type GlobalSTRAP struct {
	G      *graph.Graph
	Params ppr.Params
	Dim    int
	Seed   int64
}

// NewGlobalSTRAP prepares a global STRAP run. params.RMax should be coarser
// than the subset methods' (the paper's framing: a global method cannot
// afford the same per-source accuracy on all n sources).
func NewGlobalSTRAP(g *graph.Graph, params ppr.Params, dim int, seed int64) *GlobalSTRAP {
	return &GlobalSTRAP{G: g, Params: params, Dim: dim, Seed: seed}
}

// Factorize builds the full n×n log-PPR proximity matrix and factors it.
func (g *GlobalSTRAP) Factorize() (*STRAPResult, error) {
	n := g.G.NumNodes()
	eng, err := ppr.NewEngine(g.G, g.Params)
	if err != nil {
		return nil, err
	}
	b := sparse.NewBuilder(n, n)
	rmax := g.Params.RMax
	for src := 0; src < n; src++ {
		stF := ppr.NewState(int32(src), graph.Forward)
		eng.Push(stF)
		stR := ppr.NewState(int32(src), graph.Reverse)
		eng.Push(stR)
		stR.Each(func(v int32, pv, _ float64) {
			if arg := (stF.Est(v) + pv) / rmax; pv != 0 && arg > 1 {
				b.Add(src, int(v), math.Log(arg))
			}
		})
		// Forward-only entries (no reverse mass).
		stF.Each(func(v int32, pf, _ float64) {
			if arg := pf / rmax; stR.Est(v) == 0 && arg > 1 {
				b.Add(src, int(v), math.Log(arg))
			}
		})
	}
	return strapFactor(b.Build(), g.Dim, rsvd.Options{Seed: g.Seed, PowerIters: 2})
}

// SubsetRows extracts the rows of a global left embedding belonging to s.
func SubsetRows(global *linalg.Dense, s []int32) *linalg.Dense {
	out := linalg.NewDense(len(s), global.Cols)
	for i, v := range s {
		copy(out.Row(i), global.Row(int(v)))
	}
	return out
}
