package check

import (
	"fmt"
	"math"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/ppr"
)

// massTol bounds |Σp + Σr − 1|. Pushes and the Algorithm 2 corrections
// preserve the sum exactly in real arithmetic; the tolerance only absorbs
// floating-point drift accumulated across batches.
const massTol = 1e-8

// rmaxSlack loosens the push threshold comparison: residues may sit right
// at r_max·deg after a push that stopped exactly at the boundary.
const rmaxSlack = 1e-9

// PPRState audits one PPR state against the graph it was computed over:
//
//  1. every stored key — zero slots included — is a live node id inside
//     the state's membership set, every non-zero estimate inside its
//     estimate set (the two indexes Subset.Repair skips by), and every
//     value finite,
//  2. the push invariant |r(u)| ≤ r_max·deg(u) holds everywhere (deg
//     under the engine's dangling-node self-loop convention), and
//  3. the mass accounting Σp + Σr = 1 holds within float tolerance — the
//     residue is exactly the mass the estimates have not settled yet.
//
// A key outside either set means a write bypassed the marking and a later
// Repair may skip a correction it owes. Violations of
// (2) mean a mutation forgot to mark a residue dirty before
// the repair push; violations of (3) mean a correction moved estimate and
// residue mass inconsistently (the self-loop bug class of ISSUE 3).
func PPRState(g *graph.Graph, params ppr.Params, st *ppr.State) error {
	if st == nil {
		return fmt.Errorf("check: nil PPR state")
	}
	n := int32(g.NumNodes())
	if st.Source < 0 || st.Source >= n {
		return fmt.Errorf("check: %v state source %d outside graph with %d nodes", st.Dir, st.Source, n)
	}
	var mass float64
	var err error
	st.Each(func(u int32, p, r float64) {
		switch {
		case err != nil:
		case u < 0 || u >= n:
			err = fmt.Errorf("check: source %d %v: stored key %d outside graph with %d nodes", st.Source, st.Dir, u, n)
		case !st.Member(u):
			err = fmt.Errorf("check: source %d %v: stored key %d outside the membership set", st.Source, st.Dir, u)
		case p != 0 && !st.Estimated(u):
			err = fmt.Errorf("check: source %d %v: estimate p(%d) = %g outside the estimate set", st.Source, st.Dir, u, p)
		case math.IsNaN(p) || math.IsInf(p, 0):
			err = fmt.Errorf("check: source %d %v: non-finite estimate p(%d) = %g", st.Source, st.Dir, u, p)
		case math.IsNaN(r) || math.IsInf(r, 0):
			err = fmt.Errorf("check: source %d %v: non-finite residue r(%d) = %g", st.Source, st.Dir, u, r)
		default:
			deg := float64(g.Degree(u, st.Dir))
			if deg == 0 {
				deg = 1 // implicit self-loop at dangling nodes
			}
			if limit := params.RMax * deg; math.Abs(r) > limit*(1+rmaxSlack) {
				err = fmt.Errorf("check: source %d %v: push invariant violated at %d: |r| = %g > r_max·deg = %g",
					st.Source, st.Dir, u, math.Abs(r), limit)
			}
			mass += p + r
		}
	})
	if err != nil {
		return err
	}
	if math.Abs(mass-1) > massTol {
		return fmt.Errorf("check: source %d %v: mass accounting broken: Σp + Σr = %.12f, want 1 ± %g",
			st.Source, st.Dir, mass, massTol)
	}
	return nil
}

// PPRSubset audits every forward and reverse state of a subset.
func PPRSubset(sub *ppr.Subset) error {
	g, params := sub.Engine.G, sub.Engine.Params
	for i, s := range sub.S {
		if sub.Fwd != nil {
			if err := PPRState(g, params, sub.Fwd[i]); err != nil {
				return fmt.Errorf("subset node %d: %w", s, err)
			}
		}
		if sub.Rev != nil {
			if err := PPRState(g, params, sub.Rev[i]); err != nil {
				return fmt.Errorf("subset node %d: %w", s, err)
			}
		}
	}
	return nil
}

// exactTol absorbs the truncation of the power iteration (run until the
// remaining walk weight is < 1e-14) plus float accumulation on top of the
// analytic ResidueL1 bound.
const exactTol = 1e-9

// PPRExact verifies a state's estimates against an exact power-iteration
// computation of π on the current graph. The push invariant gives
// π = p + Σ_u r(u)·π_u pointwise, so |π(v) − p(v)| ≤ Σ_u |r(u)| — and
// Algorithm 2's correctness criterion is that dynamic corrections keep
// this bound intact no matter how many events the state absorbed. A
// correction that moves estimate mass without the matching residue (the
// self-loop bug class) passes the cheap PPRState accounting but fails
// here, because the corrupted estimates are compared against ground
// truth. O(iterations·|E|) per call: harness-only, not part of
// Embedder.Audit.
func PPRExact(g *graph.Graph, params ppr.Params, st *ppr.State) error {
	if st == nil {
		return fmt.Errorf("check: nil PPR state")
	}
	pi := exactPPR(g, st.Source, params.Alpha, st.Dir)
	bound := st.ResidueL1() + exactTol
	for v, exact := range pi {
		if diff := math.Abs(exact - st.Est(int32(v))); diff > bound {
			return fmt.Errorf("check: source %d %v: estimate error |π(%d) − p(%d)| = %g exceeds residue bound Σ|r| = %g",
				st.Source, st.Dir, v, v, diff, bound)
		}
	}
	return nil
}

// PPRSubsetExact runs PPRExact over every forward and reverse state.
func PPRSubsetExact(sub *ppr.Subset) error {
	g, params := sub.Engine.G, sub.Engine.Params
	for i, s := range sub.S {
		if sub.Fwd != nil {
			if err := PPRExact(g, params, sub.Fwd[i]); err != nil {
				return fmt.Errorf("subset node %d: %w", s, err)
			}
		}
		if sub.Rev != nil {
			if err := PPRExact(g, params, sub.Rev[i]); err != nil {
				return fmt.Errorf("subset node %d: %w", s, err)
			}
		}
	}
	return nil
}

// exactPPR computes π_s for every node by power iteration on the α-decay
// walk, using the same dangling self-loop convention as the push engine.
func exactPPR(g *graph.Graph, s int32, alpha float64, dir graph.Direction) []float64 {
	n := g.NumNodes()
	x := make([]float64, n)
	next := make([]float64, n)
	x[s] = 1
	// π_s = α Σ_t (1−α)^t walk-distribution_t; iterate the distribution.
	pi := make([]float64, n)
	weight := alpha
	for iter := 0; iter < 300; iter++ {
		for i := range pi {
			pi[i] += weight * x[i]
		}
		for i := range next {
			next[i] = 0
		}
		for u := int32(0); int(u) < n; u++ {
			if x[u] == 0 {
				continue
			}
			nbrs := g.Neighbors(u, dir)
			if len(nbrs) == 0 {
				next[u] += x[u] // dangling self-loop
				continue
			}
			share := x[u] / float64(len(nbrs))
			for _, v := range nbrs {
				next[v] += share
			}
		}
		x, next = next, x
		weight *= 1 - alpha
		if weight < 1e-14 {
			break
		}
	}
	return pi
}
