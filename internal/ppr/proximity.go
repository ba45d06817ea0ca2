package ppr

import (
	"context"
	"math"
	"slices"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// Transform selects the non-linear operation applied to the scaled PPR
// scores (Section 2.2 of the paper: "e.g., log or sigmoid").
type Transform uint8

const (
	// Log is the STRAP convention M = log(arg) for arg > 1, else 0.
	Log Transform = iota
	// Sigmoid maps arg > 1 to 2/(1+e^(−(arg−1))) − 1 ∈ (0,1): a bounded
	// alternative that compresses heavy-tailed proximity scores harder.
	Sigmoid
)

// Proximity maintains the STRAP-style proximity matrix of Section 3.1,
//
//	M_S(s,v) = f( p_s(v)/r_max + p⊤_s(v)/r_max ),
//
// kept only where the argument exceeds 1 (the STRAP convention of
// retaining proximity scores no smaller than r_max), with f the chosen
// Transform (log by default). It is stored in a column-blocked DynRow so
// Tree-SVD's lazy update can read per-block Frobenius norms and deltas in
// O(1).
type Proximity struct {
	Sub *Subset
	M   *sparse.DynRow
	// Fn is the non-linearity; the zero value is Log.
	Fn Transform
}

// NewProximity builds the proximity matrix over maxNodes columns split
// into nblocks column blocks. maxNodes must bound every node id the
// dynamic stream will ever touch (graph growth never reallocates M).
func NewProximity(sub *Subset, maxNodes, nblocks int) *Proximity {
	pr := &Proximity{Sub: sub, M: sparse.NewDynRow(len(sub.S), maxNodes, nblocks)}
	for i := range sub.S {
		pr.refreshRowFull(i)
	}
	return pr
}

// RestoreProximity rewires a persisted proximity matrix onto a restored
// Subset without recomputation. Used by the save/load path.
func RestoreProximity(sub *Subset, m *sparse.DynRow) *Proximity {
	return &Proximity{Sub: sub, M: m}
}

// value computes M_S(s,v) from the two estimate vectors.
func (pr *Proximity) value(i int, v int32) float64 {
	rmax := pr.Sub.Engine.Params.RMax
	arg := (pr.Sub.Fwd[i].P[v] + pr.Sub.Rev[i].P[v]) / rmax
	if arg <= 1 {
		return 0
	}
	if pr.Fn == Sigmoid {
		return 2/(1+math.Exp(-(arg-1))) - 1
	}
	return math.Log(arg)
}

// NewProximityWith builds the proximity matrix with an explicit transform.
func NewProximityWith(sub *Subset, maxNodes, nblocks int, fn Transform) *Proximity {
	pr := &Proximity{Sub: sub, M: sparse.NewDynRow(len(sub.S), maxNodes, nblocks), Fn: fn}
	for i := range sub.S {
		pr.refreshRowFull(i)
	}
	return pr
}

// refreshRowFull recomputes row i from scratch: every column currently in
// the row or in either estimate vector, in ascending column order.
func (pr *Proximity) refreshRowFull(i int) {
	fwd, rev := pr.Sub.Fwd[i], pr.Sub.Rev[i]
	cols := append(sortedKeys(fwd.P), sortedKeys(rev.P)...)
	// Columns that held a value before but may have no estimate mass now.
	cols = append(cols, pr.M.RowColumns(i)...)
	slices.Sort(cols)
	for _, v := range slices.Compact(cols) {
		pr.M.Set(i, int(v), pr.value(i, v))
	}
	fwd.Touched, rev.Touched = fwd.Touched[:0], rev.Touched[:0]
}

// Refresh folds the estimate changes accumulated in the states' Touched
// lists into M and drains them. Call after Subset.ApplyEvents. A state
// the batch did not reach has an empty list, so only reached rows are
// walked.
func (pr *Proximity) Refresh() {
	for i := range pr.Sub.S {
		pr.refreshTouched(i, pr.Sub.Fwd[i])
		pr.refreshTouched(i, pr.Sub.Rev[i])
	}
}

// refreshTouched recomputes row i of M at every node st touched, in
// ascending node order — M's incremental block norms then do not depend
// on the order the pushes ran in — and drains the list.
func (pr *Proximity) refreshTouched(i int, st *State) {
	if len(st.Touched) == 0 {
		return
	}
	slices.Sort(st.Touched)
	for _, v := range slices.Compact(st.Touched) {
		pr.M.Set(i, int(v), pr.value(i, v))
	}
	st.Touched = st.Touched[:0]
}

// RefreshAll recomputes every row from scratch; pair with Subset.Rebuild.
func (pr *Proximity) RefreshAll() {
	for i := range pr.Sub.S {
		pr.refreshRowFull(i)
	}
}

// ApplyEvents advances the graph and the proximity matrix through a batch
// of edge events: Algorithm 2 on the states they reach, then incremental M
// refresh of those rows.
// On error (context cancellation mid-repair) M has not absorbed the
// changes; callers must recover with Sub.Rebuild + RefreshAll before
// trusting the matrix again.
func (pr *Proximity) ApplyEvents(ctx context.Context, events []graph.Event) error {
	if err := pr.Sub.ApplyEvents(ctx, events); err != nil {
		return err
	}
	pr.Refresh()
	return nil
}

// RepairApplied is ApplyEvents for an already-advanced graph: the caller
// applies the batch once (ppr.ApplyAll) and hands over the applied slice,
// which repairs the states and refreshes the rows. Error semantics match
// ApplyEvents.
func (pr *Proximity) RepairApplied(ctx context.Context, applied []Applied) error {
	if err := pr.Sub.Repair(ctx, applied); err != nil {
		return err
	}
	pr.Refresh()
	return nil
}
