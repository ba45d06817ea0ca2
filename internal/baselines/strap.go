package baselines

import (
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
	Left, Right *linalg.Dense
}

// STRAP factors a log-PPR proximity matrix with the randomized truncated
// SVD and returns both embedding sides. Subset-STRAP (Section 2.2) is
// STRAP over the rows of S only (ppr.Proximity's matrix), redone in full
// after every change: the quality reference that Tree-SVD matches at a
// fraction of the (re)computation cost. GlobalSTRAP covers every node.
func STRAP(m *sparse.CSR, dim int, seed int64, workers int) (*STRAPResult, error) {
	res, err := rsvd.Sparse(m, rsvd.Options{Rank: dim, Seed: seed, PowerIters: 2, Workers: workers})
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
	return &STRAPResult{Left: res.USqrtS(), Right: right}, nil
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
	return STRAP(b.Build(), g.Dim, g.Seed, g.Params.Workers)
}

// SubsetRows extracts the rows of a global left embedding belonging to s.
func SubsetRows(global *linalg.Dense, s []int32) *linalg.Dense {
	out := linalg.NewDense(len(s), global.Cols)
	for i, v := range s {
		copy(out.Row(i), global.Row(int(v)))
	}
	return out
}
