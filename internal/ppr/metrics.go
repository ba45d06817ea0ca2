package ppr

import "github.com/tree-svd/treesvd/internal/obs"

// Metrics are the PPR layer's cumulative work counters — the observable
// form of Theorem 3.7's min(τ + 1/r_max, |S|/r_max) cost accounting. One
// instance is shared by every worker engine of a Subset, so the counts
// aggregate across the worker pool; updates are single atomic adds per
// Push or repaired state, never per pushed node or per event.
type Metrics struct {
	// Pushes counts PUSH operations (Algorithm 1 line 2: settle α·r,
	// spread the rest). The dominant O(1/r_max) cost term of every
	// update; watch it per batch to see how hard the estimates churn.
	Pushes obs.Counter
	// Adjusts counts the Algorithm 2 estimate/residue corrections — the
	// τ term: one per (applied event, state) whose tail is in the state's
	// membership set, so it tracks what a batch reaches, not |S|. An
	// insert at a node outside the estimate set counts, though its no-op
	// correction is not run.
	Adjusts obs.Counter
	// StatesRepaired counts the states a Repair adjusted or pushed; per
	// batch, against 2·|S|, it is the share of the subset the batch
	// reached.
	StatesRepaired obs.Counter
	// SourceRebuilds counts per-source from-scratch state rebuilds (the
	// Theorem 3.7 fallback taken for oversized batches or recovery).
	SourceRebuilds obs.Counter
}
