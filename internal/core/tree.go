package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/obs"
	"github.com/tree-svd/treesvd/internal/par"
	"github.com/tree-svd/treesvd/internal/rsvd"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// node is the cached factor of one tree node at any level — a level-1
// block, an intermediate parent or the root: its rank-≤d SVD (U and Σ; no
// node keeps V), above level 1 its projection P = Σ·Vᵀ = Uᵀ·C on its
// input C, and its tail t. The parent's input is U·Σ, formed when the
// parent merges. At level 1, t = ‖B − (B)_d‖_F is measured when the block
// is factored (the first term of Eqn. 2, free from the singular values);
// above it, t is the anchor tail ‖C − (C)_d‖_F the node's last exact merge
// left on its input C. P is what the node's next refine starts from: the
// panels of children that did not change since are already in it.
type node struct {
	res  *linalg.SVDResult
	p    *linalg.Dense // nil at level 1
	tail float64
}

// The upper-level gate (DESIGN §5): a dirty node publishes the refined
// copy of its cached basis (linalg.SVDRefine, one block power step
// started from the cached P, plus Rayleigh–Ritz) when that copy's exact
// projection error on the new input is within (1+upperGateEta)·t of its
// anchor tail, and merges exactly otherwise. The single power step and η are constants, measured on the
// system benchmark's seed-1 input over 600 batches of 48 events
// (EXPERIMENTS "Ablations"): of 989 dirty nodes, η = 0.01 without the
// step merged 144 exactly at a worst recon_over_opt of 1.0066; with the
// step, η = 0.01, 0.02 and 0.05 merged 25, 19 and 11 at 1.0053 (every
// node exact: 1.0051). The step is what holds quality; 0.02 is kept.
const upperGateEta = 0.02

// Stats counts the work done by the last Build or Update call.
type Stats struct {
	// Level1Rebuilt is |Z|: how many level-1 blocks were re-factored.
	Level1Rebuilt int
	// UpperRebuilt counts exact merge SVDs at levels ≥ 2 (affected
	// ancestors + root); UpperProjections the dirty upper nodes that
	// published their refined cached basis instead.
	UpperRebuilt, UpperProjections int
	// Skipped counts level-1 blocks served from cache.
	Skipped int
}

// Tree is the dynamic Tree-SVD over a column-blocked DynRow proximity
// matrix. The DynRow is owned by the caller (typically ppr.Proximity);
// Tree reads blocks, tracks their rebuild state via MarkRebuilt, and keeps
// all intermediate SVD results cached between snapshots.
//
// Build and Update are transactional: every factorization is produced into
// fresh structures and committed (together with the DynRow baseline resets)
// only after the whole pass succeeds. On error or context cancellation the
// tree's caches, root and the matrix's delta bookkeeping are left exactly
// as they were, so the previous factorization stays valid and a later
// Update re-triggers the pending blocks.
type Tree struct {
	cfg Config
	m   *sparse.DynRow

	// levels[l][j] caches node j at tree level l+1, bottom-up:
	// levels[0] holds the level-1 blocks and the last level the single
	// root. Empty until the first pass commits.
	levels [][]*node
	seq    int64 // per-factorization counter so randomized draws differ
	stats  Stats
	built  bool

	// met accumulates lifetime work counters and timing spans (always
	// non-nil); stages and trace are set by Observe.
	met    *Metrics
	trace  obs.TraceHook
	stages *obs.Stages
}

// NewTree wraps a DynRow whose block partition was created with
// cfg.Blocks() blocks. The realized block count may be smaller when the
// matrix is narrow; the tree adapts. It returns an error when the
// configuration is invalid.
func NewTree(m *sparse.DynRow, cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tree{cfg: cfg, m: m, met: &Metrics{}}, nil
}

// Metrics returns the tree's cumulative work counters; see Metrics.
func (t *Tree) Metrics() *Metrics { return t.met }

// Observe hands the tree the clock of the stage table that runs its
// passes — a pass that merges enters tree.merge there, closing the
// tree.level1 row the table entered before the pass — and the hook (nil
// for none) that receives a TraceBlockRecompute event for every block a
// lazy Update re-factors, from worker goroutines: it must be fast and
// concurrency-safe. Not safe to call concurrently with Build/Update — the
// facade serializes it behind the update lock.
func (t *Tree) Observe(s *obs.Stages, h obs.TraceHook) { t.stages, t.trace = s, h }

// Stats returns the work counters of the last successful Build/Update.
func (t *Tree) Stats() Stats { return t.stats }

// Built reports whether the tree holds a committed factorization.
func (t *Tree) Built() bool { return t.built }

// blockSeed pins the randomized draw of block j's factorization in the
// current pass. The draw depends on nothing else, so two trees at the same
// pass counter over the same matrix factor every block alike.
func (t *Tree) blockSeed(j int) int64 {
	return t.cfg.Seed + int64(j)*1_000_003 + t.seq*7_777_777
}

// factorCSR runs the level-1 sparse randomized SVD on an extracted block
// and returns a fresh node. With prev, the block's cached node, it starts
// from prev's basis (rsvd.SparseFrom, one subspace step); without it, or
// when prev has rank 0, from a fresh Gaussian sketch (rsvd.Sparse). Blocks
// at most d + 8 columns wide are factored exactly, and blocks at most
// d + 8 rows tall take the cold sketch, which spans their rows.
// kernelWorkers is the worker budget handed to the linear-algebra kernels
// inside the factorization; the randomized draw — and hence the result —
// depends only on the seed and prev, never on the budget.
func (t *Tree) factorCSR(blk *sparse.CSR, j int, prev *node, kernelWorkers int) (*node, error) {
	start := time.Now()
	defer t.met.BlockFactorNanos.ObserveSince(start)
	frob := blk.FrobNorm()
	// One power iteration is the cold route's constant. The tail is Eqn. 2
	// budget: on the system benchmark's blocks (|S| = 128, d = 16) it
	// leaves a mean tail/‖B_j‖ of 0.647 against the exact 0.630, where
	// zero iterations leave 0.727 of the 0.919 trigger, and half as many
	// blocks re-factor. A second iteration reaches 0.634 at 1.7× the cost
	// per block (EXPERIMENTS "Ablations"). On the churn workload's update
	// re-factors the warm step leaves 0.643 where the cold route leaves
	// 0.653 on the same blocks and draws (TestLevel1WarmTailNearOptimal).
	var u0 *linalg.Dense
	if prev != nil {
		u0 = prev.res.U
	}
	res, err := rsvd.SparseFrom(blk, u0, rsvd.Options{Rank: t.cfg.Rank, PowerIters: 1, Seed: t.blockSeed(j), Workers: kernelWorkers})
	if err != nil {
		return nil, fmt.Errorf("core: block %d: %w", j, err)
	}
	return &node{res: &linalg.SVDResult{U: res.U, S: res.S}, tail: res.TailEnergy(frob, t.cfg.Rank)}, nil
}

// Build runs the full static Tree-SVD (Algorithm 3) over the current
// matrix: every level-1 block is factored and every upper node merged
// exactly, which re-anchors the upper-level gate. Cancelling ctx aborts
// the pass without touching the committed state.
func (t *Tree) Build(ctx context.Context) error {
	start := time.Now()
	z := make([]int, t.m.NumBlocks())
	for j := range z {
		z[j] = j
	}
	return t.pass(ctx, start, z, 0, true, &t.met.Builds, nil)
}

// violates evaluates the Eqn. 2 trigger for level-1 block j of a built
// tree:
//
//	‖(B^(t-i))_d − B^(t-i)‖_F + ‖D_j‖_F > √2·δ·‖B^t_j‖_F.
func (t *Tree) violates(j int) bool {
	delta := t.m.DeltaFrobNorm(j)
	if delta == 0 {
		return false // untouched block: cache is exact
	}
	return t.levels[0][j].tail+delta > math.Sqrt2*t.cfg.Delta*t.m.BlockFrobNorm(j)
}

// Update runs the lazy update (Algorithm 4): re-factor only the level-1
// blocks violating Eqn. 2, then recompute the affected ancestors. Call it
// after the proximity matrix absorbed a batch of edge events. It returns
// the number of level-1 blocks re-factored. On error (including context
// cancellation) the committed factorization and the DynRow baselines are
// untouched, so the pending blocks still violate and a retry picks them up.
func (t *Tree) Update(ctx context.Context) (int, error) {
	if !t.built {
		if err := t.Build(ctx); err != nil {
			return 0, err
		}
		return t.stats.Level1Rebuilt, nil
	}
	start := time.Now()
	var z []int
	for j := 0; j < t.m.NumBlocks(); j++ {
		if t.violates(j) {
			z = append(z, j)
		}
	}
	if err := t.pass(ctx, start, z, t.m.NumBlocks()-len(z), false, &t.met.Updates, t.trace); err != nil {
		return 0, err
	}
	return len(z), nil
}

// pass is the one body of Build, Update and ForceRebuildBlock: it
// factors the level-1 blocks z under a fresh pass counter (from fresh
// sketches when exact is set, from their cached bases otherwise),
// re-merges their ancestors (every one exactly when exact is set, through
// the upper-level gate otherwise) and commits, then counts the pass in
// passes. With z empty it commits nothing — every block is within
// tolerance and the cached embedding stands. trace, when non-nil,
// receives a TraceBlockRecompute event per factored block.
func (t *Tree) pass(ctx context.Context, start time.Time, z []int, skipped int, exact bool, passes *obs.Counter, trace obs.TraceHook) error {
	t.seq++
	stats := Stats{Level1Rebuilt: len(z), Skipped: skipped}
	if len(z) > 0 {
		// Fresh level slices, seeded with the committed nodes where present.
		counts := t.levelCounts()
		levels := make([][]*node, len(counts))
		for l, n := range counts {
			levels[l] = make([]*node, n)
			if l < len(t.levels) {
				copy(levels[l], t.levels[l])
			}
		}
		w := par.Workers(t.cfg.Workers)
		kb := par.SplitBudget(w, len(z))
		if err := par.ForErr(ctx, len(z), w, func(i int) error {
			bstart := time.Now()
			var prev *node // levels[0] still holds the committed node
			if !exact {
				prev = levels[0][z[i]]
			}
			n, err := t.factorCSR(t.m.BlockCSR(z[i]), z[i], prev, kb)
			if err != nil {
				return err
			}
			levels[0][z[i]] = n
			if trace != nil {
				trace(obs.TraceEvent{Kind: obs.TraceBlockRecompute, Block: z[i], Dur: time.Since(bstart)})
			}
			return nil
		}); err != nil {
			return err
		}
		dirty := make(map[int]bool, len(z))
		for _, j := range z {
			dirty[j] = true
		}
		if err := t.merge(ctx, levels, dirty, exact, &stats); err != nil {
			return err
		}
		t.commit(levels, z)
	}
	t.stats = stats
	t.met.observeCommit(stats)
	passes.Inc()
	t.met.PassNanos.ObserveSince(start)
	return nil
}

// commit atomically installs a finished factorization pass: the fresh
// levels replace the old ones wholesale and only now are the rebuilt
// blocks' DynRow baselines reset. Readers holding results obtained before
// the commit keep valid (old) data — nothing they reference is mutated.
func (t *Tree) commit(levels [][]*node, rebuilt []int) {
	t.levels = levels
	for _, j := range rebuilt {
		t.m.MarkRebuilt(j)
	}
	t.built = true
}

// levelCounts returns the node counts per tree level, bottom-up, ending
// with the single root.
func (t *Tree) levelCounts() []int { return levelCounts(t.m.NumBlocks(), t.cfg.Branch) }

// levelCounts is the tree geometry over b level-1 blocks at fan-in k:
// ⌈·/k⌉ per level up to one root. A single block still gets a root
// above it, which merges that block alone.
func levelCounts(b, k int) []int {
	counts := []int{b}
	for len(counts) == 1 || counts[len(counts)-1] > 1 {
		counts = append(counts, (counts[len(counts)-1]+k-1)/k)
	}
	return counts
}

// kids returns the children of parent pj among the nodes of the level
// below it.
func (t *Tree) kids(level []*node, pj int) []*node {
	return level[pj*t.cfg.Branch : min((pj+1)*t.cfg.Branch, len(level))]
}

// inputCols is the column count of a parent's merge input: the sum of its
// children's ranks.
func inputCols(kids []*node) int {
	cols := 0
	for _, c := range kids {
		cols += c.res.Rank()
	}
	return cols
}

// nodeInput returns the merge input C of a parent with children kids —
// side by side, each as U·Σ — in pooled scratch the caller releases with
// linalg.PutDense.
func (t *Tree) nodeInput(kids []*node) *linalg.Dense {
	cc := linalg.GetDense(t.m.Rows(), inputCols(kids))
	off := 0
	for _, c := range kids {
		// U·Σ written straight into place: the same bits as res.US().
		u, s := c.res.U, c.res.S
		for i := 0; i < cc.Rows; i++ {
			out := cc.Row(i)[off:]
			for k, x := range u.Row(i) {
				out[k] = x * s[k]
			}
		}
		off += len(s)
	}
	return cc
}

// merge propagates rebuilt nodes up the tree (Algorithm 4 lines 6-12)
// through the fresh levels, whose level 1 already holds the pass's
// factors. A parent is re-derived only when one of its children changed —
// by an exact merge SVD when exact is set or the upper-level gate refuses
// the refined copy of its cached factor — and every other slot keeps the
// previous pass's node. The exact merges and the gate's accepted copies
// are counted into stats. The tree itself is not modified: the caller
// commits levels only when the whole pass succeeded.
func (t *Tree) merge(ctx context.Context, levels [][]*node, dirty map[int]bool, exact bool, stats *Stats) error {
	t.stages.Enter(obs.StageMerge)
	w := par.Workers(t.cfg.Workers)
	k := t.cfg.Branch
	for cl := 0; cl+1 < len(levels); cl++ {
		parentDirty := make(map[int]bool)
		for j := range dirty {
			parentDirty[j/k] = true
		}
		parents := make([]int, 0, len(parentDirty))
		for pj := range parentDirty {
			parents = append(parents, pj)
		}
		sort.Ints(parents)
		// Fan-out across dirty parents; each merge's kernels get the
		// leftover budget (the root level has one parent, so its merge
		// runs with the full budget — it is the serial bottleneck of
		// every update pass).
		kb := par.SplitBudget(w, len(parents))
		projected := make([]bool, len(parents))
		if err := par.ForErr(ctx, len(parents), w, func(pi int) error {
			pj := parents[pi]
			var old []*node // the committed children, which prev.p projects
			if !exact {
				old = t.kids(t.levels[cl], pj)
			}
			// levels[cl+1][pj] is still the previous pass's node.
			levels[cl+1][pj], projected[pi] = t.mergeNode(t.kids(levels[cl], pj), old, levels[cl+1][pj], kb)
			return nil
		}); err != nil {
			return err
		}
		for _, ok := range projected {
			if ok {
				stats.UpperProjections++
			} else {
				stats.UpperRebuilt++
			}
		}
		dirty = parentDirty
	}
	return nil
}

// mergeNode derives a dirty upper node's factor from its new children
// kids. With old, the children its cached node prev was computed against
// (nil in an exact pass), a prev of rank > 0 first refines its basis
// against the new input; the copy is published when its projection error
// is within (1+upperGateEta) of the anchor tail, which it inherits, and
// mergeNode reports true. Otherwise the exact merge SVD runs and its tail
// becomes the node's new anchor.
func (t *Tree) mergeNode(kids, old []*node, prev *node, workers int) (*node, bool) {
	cc := t.nodeInput(kids)
	defer linalg.PutDense(cc) // no result aliases the concat
	frob := cc.FrobNorm()
	if old != nil && prev != nil && prev.res.Rank() > 0 {
		w := projectedInput(prev, kids, old, workers)
		cand := linalg.SVDRefine(cc, w, workers)
		linalg.PutDense(w)
		if cand.TailEnergy(frob, t.cfg.Rank) <= (1+upperGateEta)*prev.tail {
			return upperNode(cand, prev.tail), true
		}
	}
	res := linalg.SVDTruncW(cc, t.cfg.Rank, workers)
	return upperNode(res, res.TailEnergy(frob, t.cfg.Rank)), false
}

// upperNode caches an upper node's factor res (which carries V) with
// tail t: U, Σ and P = Σ·Vᵀ.
func upperNode(res *linalg.SVDResult, tail float64) *node {
	return &node{res: &linalg.SVDResult{U: res.U, S: res.S}, p: res.SigmaVt(), tail: tail}
}

// projectedInput returns W = Uᵀ·C (pooled scratch), the projection of a
// dirty node's new input C on its cached basis U, panel by panel: a child
// that is the same node as in old, the children prev was computed against,
// contributes its panel of the cached P = Uᵀ·C_old; a changed child k
// contributes (Uᵀ·U_k)·Σ_k.
func projectedInput(prev *node, kids, old []*node, workers int) *linalg.Dense {
	r := prev.res.Rank()
	w := linalg.GetDense(r, inputCols(kids))
	off, oldOff := 0, 0
	for k, c := range kids {
		rk := c.res.Rank()
		if c == old[k] {
			for i := 0; i < r; i++ {
				copy(w.Row(i)[off:off+rk], prev.p.Row(i)[oldOff:])
			}
		} else {
			g := linalg.TMulW(prev.res.U, c.res.U, workers)
			for i := 0; i < r; i++ {
				out := w.Row(i)[off : off+rk]
				for kk, x := range g.Row(i) {
					out[kk] = x * c.res.S[kk]
				}
			}
		}
		off += rk
		oldOff += old[k].res.Rank()
	}
	return w
}

// ForceRebuildBlock re-factors level-1 block j unconditionally, bypassing
// the Eqn. 2 trigger (used by trigger ablations), and propagates along its
// ancestor path through the upper-level gate. It returns 1 (blocks
// rebuilt), or falls back to a full Build when the tree has never been
// built.
func (t *Tree) ForceRebuildBlock(ctx context.Context, j int) (int, error) {
	if !t.built {
		if err := t.Build(ctx); err != nil {
			return 0, err
		}
		return t.stats.Level1Rebuilt, nil
	}
	if err := t.pass(ctx, time.Now(), []int{j}, 0, false, &t.met.Updates, nil); err != nil {
		return 0, err
	}
	return 1, nil
}

// Root returns the root truncated SVD (U_{q,1})_d, (Σ_{q,1})_d; it
// carries no V. Build or Update must have succeeded first. The returned
// result (and its U/S) is immutable: later Build/Update calls install
// fresh objects instead of mutating it, so callers may hold it across
// updates.
func (t *Tree) Root() *linalg.SVDResult {
	if !t.built {
		panic("core: Root before Build")
	}
	return t.levels[len(t.levels)-1][0].res
}

// Embedding returns the subset embedding X = (U_{q,1})_d·√(Σ_{q,1})_d.
func (t *Tree) Embedding() *linalg.Dense {
	return t.Root().USqrtS()
}

// RightEmbedding recovers the right-factor embedding Y = Ṽ_d·√Σ with
// Ṽ_d = Σ⁻¹·Uᵀ·M_S (Theorem 3.2), i.e. Yᵀ rows are indexed by graph
// nodes. Net per-column scaling is 1/√σ, computed in one sparse pass.
func (t *Tree) RightEmbedding() *linalg.Dense {
	return RightEmbeddingOfW(t.Root(), t.m.ToCSR(), par.Workers(t.cfg.Workers))
}

// RightEmbeddingOf recovers Y = Ṽ√Σ (Ṽ = Σ⁻¹UᵀM, rows indexed by the n
// matrix columns) for an externally held root SVD over matrix m.
func RightEmbeddingOf(root *linalg.SVDResult, m *sparse.CSR) *linalg.Dense {
	return RightEmbeddingOfW(root, m, 1)
}

// RightEmbeddingOfW is RightEmbeddingOf with a worker budget for the
// O(nnz·d) sparse transpose-product.
func RightEmbeddingOfW(root *linalg.SVDResult, m *sparse.CSR, workers int) *linalg.Dense {
	y := m.TMulDenseW(root.U, workers)
	scale := make([]float64, len(root.S))
	for i, s := range root.S {
		if s > 0 {
			scale[i] = 1 / math.Sqrt(s)
		}
	}
	return y.MulDiag(scale)
}

// ReconstructionError returns ‖U·Σ·Ṽ − M‖_F with Ṽ = Σ⁻¹UᵀM, the
// observable counterpart of the Theorem 3.2 guarantee (tests and
// diagnostics; materializes an n×d dense intermediate). ‖M‖_F comes from
// DynRow's incrementally maintained block norms (O(nblocks)), and Mᵀ·U is
// read straight off the live cells — no CSR materialization, so the
// whole routine is one O(nnz·d) pass.
func (t *Tree) ReconstructionError() float64 {
	root := t.Root()
	f := t.m.FrobNorm()
	if root.Rank() == 0 {
		return f
	}
	vt := t.m.TMulDense(root.U) // n×d = Mᵀ·U
	// ‖M − U·Uᵀ·M‖²_F = ‖M‖²_F − ‖Uᵀ·M‖²_F (projection identity).
	proj := vt.FrobNorm()
	diff := f*f - proj*proj
	if diff < 0 {
		diff = 0
	}
	return math.Sqrt(diff)
}

func (t *Tree) String() string {
	return fmt.Sprintf("TreeSVD(d=%d, k=%d, q=%d, b=%d, δ=%g)",
		t.cfg.Rank, t.cfg.Branch, t.cfg.Levels, t.m.NumBlocks(), t.cfg.Delta)
}
