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

// blockCache is the per-level-1-block state kept between updates: the
// compressed representation Ū = (U)_d(Σ)_d fed to level 2, and the tail
// energy ‖(B)_d − B‖_F measured when the block was last factored (the
// first term of Eqn. 2, free from the cached singular values).
type blockCache struct {
	us   *linalg.Dense
	tail float64
	// seq is the tree's factorization counter when this cache was built; it
	// pins the randomized draw, so the correctness harness can re-factor
	// the block's baseline at the same seed and demand an identical result.
	// -1 marks caches restored from a snapshot without seed provenance.
	seq int64
}

// Stats counts the work done by the last Build or Update call.
type Stats struct {
	// Level1Rebuilt is |Z|: how many level-1 blocks were re-factored.
	Level1Rebuilt int
	// UpperRebuilt counts SVDs at levels ≥ 2 (affected ancestors + root).
	UpperRebuilt int
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

	level1 []*blockCache
	// upper[l][j] caches Ū of node j at tree level l+2 (level 2 is
	// upper[0]); the root's full SVD lives in root instead. The last
	// entry of upper always has a single node (the root's merge input is
	// the level below it), except when the whole tree is a single chain.
	upper [][]*linalg.Dense
	root  *linalg.SVDResult
	seq   int64 // per-factorization counter so randomized draws differ
	stats Stats
	built bool

	// met accumulates lifetime work counters and timing spans (always
	// non-nil); trace, when set, receives a TraceBlockRecompute event for
	// every level-1 block a lazy Update re-factors.
	met   *Metrics
	trace obs.TraceHook
}

// NewTree wraps a DynRow whose block partition was created with
// cfg.Blocks() blocks. The realized block count may be smaller when the
// matrix is narrow; the tree adapts. It returns an error when the
// configuration is invalid.
func NewTree(m *sparse.DynRow, cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tree{cfg: cfg, m: m, level1: make([]*blockCache, m.NumBlocks()), met: &Metrics{}}, nil
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Metrics returns the tree's cumulative work counters; see Metrics.
func (t *Tree) Metrics() *Metrics { return t.met }

// SetTrace installs (or clears, with nil) the hook that receives a
// TraceBlockRecompute event for every block a lazy Update re-factors. The
// hook fires from worker goroutines; it must be fast and concurrency-safe.
// Not safe to call concurrently with Build/Update — the facade serializes
// it behind the update lock.
func (t *Tree) SetTrace(h obs.TraceHook) { t.trace = h }

// Stats returns the work counters of the last successful Build/Update.
func (t *Tree) Stats() Stats { return t.stats }

// Built reports whether the tree holds a committed factorization.
func (t *Tree) Built() bool { return t.built }

// factorBlock runs the level-1 sparse randomized SVD on block j and
// returns a fresh cache entry. kernelWorkers is the worker budget handed
// to the linear-algebra kernels inside the factorization (see
// splitBudget); the randomized draw — and hence the result — depends only
// on the seed, never on the budget. It does not touch the tree or the
// DynRow baseline — commits happen only after a whole Build/Update
// succeeds.
func (t *Tree) factorBlock(j, kernelWorkers int) (*blockCache, error) {
	return t.factorCSR(t.m.BlockCSR(j), j, t.seq, kernelWorkers)
}

// blockSeed pins the randomized draw of block j's factorization at pass
// seq; factorCSR and the harness's AuditBlock derive seeds the same way,
// so replaying a block's baseline reproduces its cached factorization.
func (t *Tree) blockSeed(j int, seq int64) int64 {
	return t.cfg.Seed + int64(j)*1_000_003 + seq*7_777_777
}

// factorCSR factors an extracted block at an explicit pass counter.
func (t *Tree) factorCSR(blk *sparse.CSR, j int, seq int64, kernelWorkers int) (*blockCache, error) {
	start := time.Now()
	defer t.met.BlockFactorNanos.ObserveSince(start)
	frob := blk.FrobNorm()
	opts := rsvd.Options{
		Rank:       t.cfg.Rank,
		Oversample: t.cfg.Oversample,
		PowerIters: t.cfg.PowerIters,
		Seed:       t.blockSeed(j, seq),
		Workers:    kernelWorkers,
	}
	var res *linalg.SVDResult
	var err error
	if t.cfg.UseCountSketch {
		res, err = rsvd.SparseCW(blk, opts)
	} else {
		res, err = rsvd.Sparse(blk, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: block %d: %w", j, err)
	}
	return &blockCache{us: res.US(), tail: res.TailEnergy(frob, t.cfg.Rank), seq: seq}, nil
}

// splitBudget divides the tree's worker budget across tasks concurrent
// tasks so fan-out parallelism and kernel parallelism compose instead of
// oversubscribing: with many level-1 blocks each factorization runs its
// kernels serially, while a root merge (one task) gets the whole budget.
// It delegates to the shared resolver in internal/par, which documents
// the composition contract.
func splitBudget(w, tasks int) int {
	return par.SplitBudget(w, tasks)
}

// Build runs the full static Tree-SVD (Algorithm 3) over the current
// matrix: every level-1 block is factored and the whole tree is merged.
// Cancelling ctx aborts the pass without touching the committed state.
func (t *Tree) Build(ctx context.Context) error {
	start := time.Now()
	t.seq++
	w := par.Workers(t.cfg.Workers)
	fresh := make([]*blockCache, len(t.level1))
	kb := splitBudget(w, len(fresh))
	if err := stage(ctx, "tree.level1", func(ctx context.Context) error {
		return par.ForErr(ctx, len(fresh), w, func(j int) error {
			c, err := t.factorBlock(j, kb)
			if err != nil {
				return err
			}
			fresh[j] = c
			return nil
		})
	}); err != nil {
		return err
	}
	dirty := make(map[int]bool, len(fresh))
	for j := range fresh {
		dirty[j] = true
	}
	upper, root, merges, err := t.merge(ctx, fresh, dirty)
	if err != nil {
		return err
	}
	t.commit(fresh, upper, root, dirty,
		Stats{Level1Rebuilt: len(fresh), UpperRebuilt: merges})
	t.met.Builds.Inc()
	t.met.PassNanos.ObserveSince(start)
	return nil
}

// violates evaluates the Eqn. 2 trigger for level-1 block j:
//
//	‖(B^(t-i))_d − B^(t-i)‖_F + ‖D_j‖_F > √2·δ·‖B^t_j‖_F.
//
// Unbuilt blocks always violate.
func (t *Tree) violates(j int) bool {
	c := t.level1[j]
	if c == nil {
		return true
	}
	delta := t.m.DeltaFrobNorm(j)
	if delta == 0 {
		return false // untouched block: cache is exact
	}
	return c.tail+delta > math.Sqrt2*t.cfg.Delta*t.m.BlockFrobNorm(j)
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
	t.seq++
	var z []int
	skipped := 0
	for j := range t.level1 {
		if t.violates(j) {
			z = append(z, j)
		} else {
			skipped++
		}
	}
	if len(z) == 0 {
		t.stats = Stats{Skipped: skipped}
		t.met.Updates.Inc()
		t.met.BlocksSkipped.Add(uint64(skipped))
		t.met.PassNanos.ObserveSince(start)
		return 0, nil // every block within tolerance: cached embedding stands
	}
	w := par.Workers(t.cfg.Workers)
	fresh := append([]*blockCache(nil), t.level1...)
	kb := splitBudget(w, len(z))
	if err := stage(ctx, "tree.level1", func(ctx context.Context) error {
		return par.ForErr(ctx, len(z), w, func(i int) error {
			bstart := time.Now()
			c, err := t.factorBlock(z[i], kb)
			if err != nil {
				return err
			}
			fresh[z[i]] = c
			if h := t.trace; h != nil {
				h(obs.TraceEvent{Kind: obs.TraceBlockRecompute, Block: z[i], Dur: time.Since(bstart)})
			}
			return nil
		})
	}); err != nil {
		return 0, err
	}
	dirty := make(map[int]bool, len(z))
	for _, j := range z {
		dirty[j] = true
	}
	upper, root, merges, err := t.merge(ctx, fresh, dirty)
	if err != nil {
		return 0, err
	}
	t.commit(fresh, upper, root, dirty,
		Stats{Level1Rebuilt: len(z), Skipped: skipped, UpperRebuilt: merges})
	t.met.Updates.Inc()
	t.met.PassNanos.ObserveSince(start)
	return len(z), nil
}

// commit atomically installs a finished factorization pass: the fresh
// caches replace the old ones wholesale and only now are the rebuilt
// blocks' DynRow baselines reset. Readers holding results obtained before
// the commit keep valid (old) data — nothing they reference is mutated.
func (t *Tree) commit(level1 []*blockCache, upper [][]*linalg.Dense, root *linalg.SVDResult, rebuilt map[int]bool, stats Stats) {
	t.level1 = level1
	t.upper = upper
	t.root = root
	for j := range rebuilt {
		t.m.MarkRebuilt(j)
	}
	t.stats = stats
	t.built = true
	t.met.observeCommit(stats)
}

// levelCounts returns the node counts per tree level, bottom-up, ending
// with the single root.
func (t *Tree) levelCounts() []int {
	counts := []int{len(t.level1)}
	for counts[len(counts)-1] > 1 {
		c := counts[len(counts)-1]
		counts = append(counts, (c+t.cfg.Branch-1)/t.cfg.Branch)
	}
	return counts
}

// merge propagates rebuilt nodes up the tree (Algorithm 4 lines 6-12) into
// fresh upper-level caches and a fresh root: a parent is re-merged exactly
// when one of its children changed; untouched subtrees are copied from the
// previous caches. The tree itself is not modified — the caller commits
// the returned structures only when the whole pass succeeded.
func (t *Tree) merge(ctx context.Context, level1 []*blockCache, dirty map[int]bool) ([][]*linalg.Dense, *linalg.SVDResult, int, error) {
	start := time.Now()
	defer t.met.MergeNanos.ObserveSince(start)
	w := par.Workers(t.cfg.Workers)
	counts := t.levelCounts()
	if len(counts) == 1 {
		// Single level-1 block: its truncated SVD is the root.
		return nil, linalg.SVDTruncW(level1[0].us, t.cfg.Rank, w), 1, nil
	}
	// Fresh upper cache: one slice per intermediate level (2..q-1), seeded
	// with the previous pass's results where present.
	upper := make([][]*linalg.Dense, len(counts)-2)
	for li := range upper {
		upper[li] = make([]*linalg.Dense, counts[li+1])
		if li < len(t.upper) {
			copy(upper[li], t.upper[li])
		}
	}
	childUS := func(cl, j int) *linalg.Dense {
		if cl == 0 {
			return level1[j].us
		}
		return upper[cl-1][j]
	}
	var root *linalg.SVDResult
	merges := 0
	k := t.cfg.Branch
	if err := stage(ctx, "tree.merge", func(ctx context.Context) error {
		for cl := 0; cl+1 < len(counts); cl++ {
			parentDirty := make(map[int]bool)
			for j := range dirty {
				parentDirty[j/k] = true
			}
			parents := make([]int, 0, len(parentDirty))
			for pj := range parentDirty {
				parents = append(parents, pj)
			}
			sort.Ints(parents)
			isRootLevel := counts[cl+1] == 1
			// Fan-out across dirty parents; each merge's kernels get the
			// leftover budget (the root level has one parent, so its exact SVD
			// runs with the full budget — it is the serial bottleneck of every
			// update pass).
			kb := splitBudget(w, len(parents))
			if err := par.ForErr(ctx, len(parents), w, func(pi int) error {
				pj := parents[pi]
				lo := pj * k
				hi := lo + k
				if hi > counts[cl] {
					hi = counts[cl]
				}
				children := make([]*linalg.Dense, 0, hi-lo)
				cols := 0
				for j := lo; j < hi; j++ {
					c := childUS(cl, j)
					children = append(children, c)
					cols += c.Cols
				}
				// The |S|×(k·d) concat is pooled scratch: SVDTruncW's results
				// never alias its input, so the buffer is recycled as soon as
				// the merge SVD returns instead of being reallocated for every
				// parent of every update pass.
				cc := linalg.GetDense(children[0].Rows, cols)
				linalg.HCatInto(cc, children...)
				res := linalg.SVDTruncW(cc, t.cfg.Rank, kb)
				linalg.PutDense(cc)
				if isRootLevel {
					root = res // exactly one root-level parent: no write race
				} else {
					upper[cl][pj] = res.US()
				}
				return nil
			}); err != nil {
				return err
			}
			merges += len(parents)
			dirty = parentDirty
		}
		return nil
	}); err != nil {
		return nil, nil, 0, err
	}
	return upper, root, merges, nil
}

// ForceRebuildBlock re-factors level-1 block j unconditionally and
// propagates along its ancestor path, bypassing the Eqn. 2 trigger (used
// by trigger ablations). It returns 1 (blocks rebuilt), or falls back to a
// full Build when the tree has never been built.
func (t *Tree) ForceRebuildBlock(ctx context.Context, j int) (int, error) {
	if !t.built {
		if err := t.Build(ctx); err != nil {
			return 0, err
		}
		return t.stats.Level1Rebuilt, nil
	}
	start := time.Now()
	t.seq++
	c, err := t.factorBlock(j, par.Workers(t.cfg.Workers))
	if err != nil {
		return 0, err
	}
	fresh := append([]*blockCache(nil), t.level1...)
	fresh[j] = c
	dirty := map[int]bool{j: true}
	upper, root, merges, err := t.merge(ctx, fresh, dirty)
	if err != nil {
		return 0, err
	}
	t.commit(fresh, upper, root, dirty,
		Stats{Level1Rebuilt: 1, UpperRebuilt: merges})
	t.met.Updates.Inc()
	t.met.PassNanos.ObserveSince(start)
	return 1, nil
}

// Root returns the root truncated SVD (U_{q,1})_d, (Σ_{q,1})_d. Build or
// Update must have succeeded first. The returned result (and its U/S/V)
// is immutable: later Build/Update calls install fresh objects instead of
// mutating it, so callers may hold it across updates.
func (t *Tree) Root() *linalg.SVDResult {
	if t.root == nil {
		panic("core: Root before Build")
	}
	return t.root
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

// Matrix exposes the underlying proximity DynRow.
func (t *Tree) Matrix() *sparse.DynRow { return t.m }

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
