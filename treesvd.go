// Package treesvd is the public facade of the Tree-SVD library: efficient
// subset node embedding over large dynamic graphs via hierarchical
// truncated SVD with lazy updates (SIGMOD 2023).
//
// The typical lifecycle is:
//
//	g := treesvd.NewGraph()                    // or load an event stream
//	g.InsertEdge(0, 1); ...
//	emb, err := treesvd.New(g, subset, treesvd.Defaults())
//	X := emb.Embedding()                       // |S|×d subset embedding
//	...
//	emb.ApplyEvents(ctx, events)               // graph changed
//	X = emb.Embedding()                        // lazily-updated embedding
//
// New runs the full pipeline: Forward-Push personalized PageRank on the
// graph and its reverse (Algorithms 1-2 of the paper), the STRAP-style
// log-transformed proximity matrix, and the hierarchical Tree-SVD
// factorization (Algorithm 3). ApplyEvents maintains everything
// incrementally: dynamic Forward-Push repairs the PPR estimates, the
// proximity matrix absorbs the changes with per-block Frobenius
// bookkeeping, and only blocks violating the Lemma 3.4 trigger are
// re-factored (Algorithm 4).
//
// # Concurrency
//
// Reads and updates are decoupled by snapshot isolation: every successful
// New/ApplyEvents/Rebuild atomically publishes an immutable Snapshot, and
// every read method (Embedding, RightEmbedding, Recommend, LastStats)
// serves from the currently published snapshot. Any number of goroutines
// may read — directly or via Snapshot() — while a single update is in
// flight; updates themselves are serialized by an internal mutex. See the
// Snapshot type for pinning a consistent version across several reads.
package treesvd

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tree-svd/treesvd/internal/check"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/obs"
	"github.com/tree-svd/treesvd/internal/par"
	"github.com/tree-svd/treesvd/internal/ppr"
)

// Graph is a dynamic directed graph. The zero value is not usable; call
// NewGraph.
type Graph = graph.Graph

// Event is an edge insertion or deletion.
type Event = graph.Event

// Event types.
const (
	Insert = graph.Insert
	Delete = graph.Delete
)

// NewGraph returns an empty dynamic graph; nodes are created on demand by
// InsertEdge.
func NewGraph() *Graph { return graph.New(0) }

// NewGraphN returns a dynamic graph with n isolated nodes.
func NewGraphN(n int) *Graph { return graph.New(n) }

// Config bundles every knob of the pipeline. Zero values are replaced by
// the Defaults() counterparts; negative values for Dim, Alpha, RMax or
// Delta are rejected.
type Config struct {
	// Dim is the embedding dimension d (default 32).
	Dim int
	// Alpha is the PPR decay factor (default 0.15).
	Alpha float64
	// RMax is the Forward-Push threshold (default 1e-4); smaller is more
	// accurate and more expensive.
	RMax float64
	// Branch (k, default 8) and Levels (q, default 3) set the tree shape;
	// the proximity matrix is split into k^(q-1) column blocks.
	Branch, Levels int
	// Delta is the lazy-update threshold δ of Eqn. 2. Zero selects the
	// default 0.65; pass a tiny positive value (e.g. 1e-12) to force
	// eager re-factorization of every touched block.
	Delta float64
	// MaxNodes bounds node ids the graph will ever reach. 0 means "the
	// graph's current size"; set it when the stream will grow the graph.
	//
	// Contract: the proximity matrix and the right embedding are allocated
	// max(MaxNodes, g.NumNodes()) columns wide at New and never grow.
	// ApplyEvents validates every batch against that capacity up front and
	// rejects it with a *NodeRangeError — before mutating the graph or any
	// estimate — when an event references a node id at or beyond it.
	MaxNodes int
	// Seed drives the randomized factorization (default 1).
	Seed int64
	// SelfCheck runs the internal/check invariant auditors (PPR push
	// invariant and mass accounting, proximity-matrix bookkeeping recount,
	// tree cache shapes) after every ApplyEvents/Rebuild, before the new
	// snapshot is published. A failed audit aborts the update with a
	// descriptive error, keeps the previous snapshot readable, and routes
	// the next update through the full-rebuild recovery path. Costs an
	// extra O(nnz) pass per update — a debugging aid, not for production.
	SelfCheck bool
	// Workers parallelizes per-source PPR work and per-block
	// factorizations (0 or 1 = sequential). Results are identical for any
	// worker count.
	Workers int
	// Shards splits the subset into this many contiguous row shards, each
	// owning its sources' PPR states, its slice of the proximity matrix
	// and its own Tree-SVD; the coordinator fans event batches out to
	// every shard in parallel (bounded by Workers overall) and merges the
	// per-shard factorizations above the shard boundary on the first read
	// that needs global factors. 0 and 1 mean unsharded: the one-shard case
	// of the same pipeline, save format and checkpoint. Negative values and
	// counts exceeding the subset size are rejected with a
	// *ShardConfigError.
	Shards int
	// Retired; named by benchmark/trace.go, delete with ROADMAP item 3's
	// seam. New, FactorizeMatrix and Load reject any non-zero value.
	SVDUpdate      bool
	UpdateMaxRel   float64
	UpdateTailFrac float64
	PushAccel      PushAccel
}

// PushAccel and PushSOR are retired with Config.PushAccel (see there).
type PushAccel int

// PushSOR is retired; see PushAccel.
const PushSOR PushAccel = 1

// Defaults returns the paper's configuration (scaled d).
func Defaults() Config {
	return Config{Dim: 32, Alpha: 0.15, RMax: 1e-4, Branch: 8, Levels: 3, Delta: 0.65, Seed: 1, Shards: 1}
}

// withDefaults fills zero values from Defaults and rejects negative knobs
// instead of silently substituting them.
func (c Config) withDefaults() (Config, error) {
	switch {
	case c.Dim < 0:
		return c, fmt.Errorf("treesvd: negative Dim %d", c.Dim)
	case c.Alpha < 0:
		return c, fmt.Errorf("treesvd: negative Alpha %g", c.Alpha)
	case c.RMax < 0:
		return c, fmt.Errorf("treesvd: negative RMax %g", c.RMax)
	case c.Delta < 0:
		return c, fmt.Errorf("treesvd: negative Delta %g", c.Delta)
	case c.Shards < 0:
		return c, &ShardConfigError{Shards: c.Shards}
	case c.SVDUpdate || c.UpdateMaxRel != 0 || c.UpdateTailFrac != 0 || c.PushAccel != 0:
		return c, fmt.Errorf("treesvd: SVDUpdate/UpdateMaxRel/UpdateTailFrac/PushAccel (%t/%g/%g/%d) were removed: on the system benchmark the incremental block update was 2-13x slower per batch than re-factoring and the SOR push did more pushes than the classic step",
			c.SVDUpdate, c.UpdateMaxRel, c.UpdateTailFrac, c.PushAccel)
	}
	d := Defaults()
	if c.Dim == 0 {
		c.Dim = d.Dim
	}
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.RMax == 0 {
		c.RMax = d.RMax
	}
	if c.Branch <= 0 {
		c.Branch = d.Branch
	}
	if c.Levels <= 0 {
		c.Levels = d.Levels
	}
	if c.Delta == 0 {
		c.Delta = d.Delta
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c, nil
}

// Embedder maintains subset embeddings over a dynamic graph.
//
// Concurrency contract: ApplyEvents, Rebuild and Save serialize on an
// internal mutex (safe from any goroutine); Snapshot, Embedding,
// RightEmbedding, Recommend, LastStats, Subset and Version are lock-free
// reads of the last published snapshot and are safe to call concurrently
// with an in-flight update. Graph() returns a read-only view whose
// accessors serialize with updates on the same mutex, so it too is safe
// from any goroutine; the live graph itself is never handed out.
type Embedder struct {
	cfg    Config
	subset []int32
	rowOf  map[int32]int

	mu sync.Mutex // serializes updates (ApplyEvents/Rebuild/Save)
	// g is the shared graph substrate: one copy of the topology, advanced
	// exactly once per batch by the coordinator and read concurrently by
	// every shard's repair pass.
	g *graph.Graph
	// shards partitions the subset into contiguous row ranges; shards[0]
	// additionally holds the metric sets shared by every shard. Unsharded
	// embedders are the len(shards)==1 special case of the same layout.
	shards []*shard
	// stale is set when a cancelled/failed update left the PPR estimates
	// out of sync with the already-advanced graph; the next update then
	// takes the full-rebuild path to recover.
	stale bool
	// trace receives pipeline events when set (see SetTraceHook); durMet
	// links the durable layer's counters in when a DurableEmbedder wraps
	// this embedder. Both are guarded by mu.
	trace  obs.TraceHook
	durMet *durableMetrics

	met     *pipelineMetrics
	version atomic.Uint64
	snap    atomic.Pointer[Snapshot]
}

// shard is the first-class unit of scale-out: a contiguous slice of
// subset rows [lo, hi) together with everything derived from them — the
// forward/reverse PPR states, the shard's rows of the proximity matrix
// (its own DynRow, so level-1 block caches and norms are per-shard), and
// a full Tree-SVD over that slice. Shards share the graph substrate and
// the aggregate metric sets but own no cross-shard state; the
// coordinator (Embedder) merges factorizations above the shard boundary.
type shard struct {
	id     int
	lo, hi int // subset row range [lo, hi)
	prox   *ppr.Proximity
	tree   *core.Tree
}

// shardSeedStride separates the randomized-factorization seed streams of
// neighboring shards; shard 0 keeps Config.Seed exactly.
const shardSeedStride = 611_953_393

// shardTreeConfig is tcfg with shard i's seed stream.
func shardTreeConfig(tcfg core.Config, i int) core.Config {
	tcfg.Seed += int64(i) * shardSeedStride
	return tcfg
}

// pipeline derives the per-shard PPR parameters and tree configuration
// from a defaulted Config, validating both (used by New and Load). Each
// shard's pipeline runs under an equal share of the worker budget; the
// outer fan-out is capped at Workers, so the product stays within the
// global budget (the par.SplitBudget contract).
func (c Config) pipeline() (ppr.Params, core.Config, error) {
	sw := par.SplitBudget(c.Workers, c.Shards)
	params := ppr.Params{Alpha: c.Alpha, RMax: c.RMax, Workers: sw, Met: &ppr.Metrics{}}
	tcfg := core.Config{
		Rank: c.Dim, Branch: c.Branch, Levels: c.Levels,
		Delta: c.Delta, Seed: c.Seed, Workers: sw,
	}
	if err := params.Validate(); err != nil {
		return params, tcfg, err
	}
	return params, tcfg, tcfg.Validate()
}

// forEachShard runs f over every shard, concurrently when there is more
// than one (bounded by the coordinator's Workers budget; each shard's
// own pipeline runs under its SplitBudget share, keeping the product
// within the global budget). The single-shard path calls f inline.
func (e *Embedder) forEachShard(ctx context.Context, f func(s *shard) error) error {
	if len(e.shards) == 1 {
		return f(e.shards[0])
	}
	return par.ForErr(ctx, len(e.shards), par.Workers(e.cfg.Workers), func(i int) error {
		return f(e.shards[i])
	})
}

// New builds the initial embedding state for subset over g and publishes
// the first snapshot. The graph is retained and mutated by ApplyEvents;
// callers must not mutate it directly afterwards.
func New(g *Graph, subset []int32, cfg Config) (*Embedder, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(subset) == 0 {
		return nil, fmt.Errorf("treesvd: empty subset")
	}
	for _, v := range subset {
		if v < 0 || int(v) >= g.NumNodes() {
			return nil, fmt.Errorf("treesvd: subset node %d outside graph with %d nodes", v, g.NumNodes())
		}
		if g.OutDeg(v) == 0 {
			return nil, fmt.Errorf("treesvd: subset node %d has no out-edges; PPR from it is degenerate", v)
		}
	}
	if cfg.Shards > len(subset) {
		return nil, &ShardConfigError{Shards: cfg.Shards, Subset: len(subset)}
	}
	params, tcfg, err := cfg.pipeline()
	if err != nil {
		return nil, err
	}
	maxNodes := cfg.MaxNodes
	if maxNodes < g.NumNodes() {
		maxNodes = g.NumNodes()
	}
	ranges := core.ShardRanges(len(subset), cfg.Shards)
	shards := make([]*shard, len(ranges))
	treeMet := &core.Metrics{}
	if err := par.ForErr(context.Background(), len(ranges), par.Workers(cfg.Workers), func(i int) error {
		sub, err := ppr.NewSubset(g, subset[ranges[i][0]:ranges[i][1]], params)
		if err != nil {
			return err
		}
		prox := ppr.NewProximity(sub, maxNodes, tcfg.Blocks())
		tree, err := core.NewTree(prox.M, shardTreeConfig(tcfg, i))
		if err != nil {
			return err
		}
		tree.ShareMetrics(treeMet)
		if err := tree.Build(context.Background()); err != nil {
			return err
		}
		shards[i] = &shard{id: i, lo: ranges[i][0], hi: ranges[i][1], prox: prox, tree: tree}
		return nil
	}); err != nil {
		return nil, err
	}
	e := newEmbedder(cfg, subset, g, shards)
	e.publishLocked()
	return e, nil
}

// newEmbedder wires the shared fields (used by New and Load).
func newEmbedder(cfg Config, subset []int32, g *graph.Graph, shards []*shard) *Embedder {
	e := &Embedder{
		cfg:    cfg,
		subset: append([]int32(nil), subset...),
		rowOf:  make(map[int32]int, len(subset)),
		g:      g,
		shards: shards,
	}
	for i, v := range e.subset {
		e.rowOf[v] = i
	}
	e.met = newPipelineMetrics(e)
	return e
}

// NumShards returns the number of subset shards the embedder runs
// (Config.Shards after defaulting; 1 for unsharded embedders).
func (e *Embedder) NumShards() int { return len(e.shards) }

// Subset returns the embedded node ids in row order.
func (e *Embedder) Subset() []int32 { return append([]int32(nil), e.subset...) }

// ApplyEvents advances the graph through a batch of edge events and
// lazily refreshes the factorization, publishing a new snapshot on
// success. It returns the number of level-1 blocks that were re-factored
// across all shards (0 when every block stayed within the Eqn. 2
// tolerance).
//
// Cancelling ctx aborts the update with ctx's error; the last published
// snapshot stays intact and readable, and the embedder recovers on the
// next successful ApplyEvents or Rebuild (taking the from-scratch path if
// the interrupted update left the PPR estimates behind the graph).
//
// Following Theorem 3.7's min(τ + 1/r_max, |S|/r_max) accounting, a batch
// larger than 1/r_max events is handled by recomputing the PPR states
// from scratch instead of replaying each event — the incremental path
// would cost more than a fresh push per source.
//
// A batch containing an event whose node id is negative or at/beyond the
// embedder's capacity (see Config.MaxNodes) is rejected whole with a
// *NodeRangeError before any state is mutated.
func (e *Embedder) ApplyEvents(ctx context.Context, events []Event) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyEventsLocked(ctx, events, true)
}

// applyEventsLocked is the body of ApplyEvents. Caller holds e.mu.
// publish=false skips the snapshot publication (a sort-free copy of the
// proximity matrix's nnz entries plus the subset's exclusion lists),
// letting WAL replay fold many batches and publish once at the end. It
// wraps the batch in the trace bracket (one TraceBatchStart, one
// TraceBatchEnd — including on error) and records the facade-level batch
// metrics; the pipeline work itself runs in applyBatchLocked.
func (e *Embedder) applyEventsLocked(ctx context.Context, events []Event, publish bool) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	// Validate the whole batch against the fixed proximity width before
	// touching anything: an oversized node id used to grow the graph and
	// then panic deep inside the proximity refresh, after the graph had
	// already advanced past the estimates.
	if err := e.validateEvents(events); err != nil {
		return 0, err
	}
	start := time.Now()
	e.met.seq++
	seq := e.met.seq
	if h := e.trace; h != nil {
		h(obs.TraceEvent{Kind: obs.TraceBatchStart, Seq: seq, Block: -1, Events: len(events)})
	}
	rebuilt, err := e.applyBatchLocked(ctx, events, publish)
	if err == nil {
		e.met.batches.Inc()
		e.met.events.Add(uint64(len(events)))
	}
	e.met.batchNanos.ObserveSince(start)
	if h := e.trace; h != nil {
		h(obs.TraceEvent{Kind: obs.TraceBatchEnd, Seq: seq, Block: -1, Events: len(events),
			Rebuilt: rebuilt, Dur: time.Since(start), Err: err})
	}
	return rebuilt, err
}

// applyBatchLocked runs the batch through the pipeline stages, each under
// its pprof stage label. Caller holds e.mu.
func (e *Embedder) applyBatchLocked(ctx context.Context, events []Event, publish bool) (int, error) {
	if err := stage(ctx, "ppr.apply", func(ctx context.Context) error {
		if e.stale || e.shards[0].prox.Sub.RebuildThreshold(len(events)) {
			// Large batch (the Theorem 3.7 fallback) or recovery from an
			// interrupted update: advance the graph, then recompute PPR and
			// proximity from scratch.
			e.g.ApplyAll(events)
			e.stale = true // graph is ahead of the estimates until Rebuild lands
			if err := e.forEachShard(ctx, func(s *shard) error {
				if err := s.prox.Sub.Rebuild(ctx); err != nil {
					return err
				}
				s.prox.RefreshAll()
				return nil
			}); err != nil {
				return err
			}
			e.stale = false
			return nil
		}
		// The coordinator advances the shared graph exactly once; every
		// shard then repairs its own sources from the recorded applied
		// slice, reading the (now quiescent) graph concurrently.
		applied := ppr.ApplyAll(e.g, events)
		if err := e.forEachShard(ctx, func(s *shard) error {
			return s.prox.RepairApplied(ctx, applied)
		}); err != nil {
			e.stale = true
			return err
		}
		return nil
	}); err != nil {
		return 0, err
	}
	counts := make([]int, len(e.shards))
	if err := e.forEachShard(ctx, func(s *shard) error {
		start := time.Now()
		n, err := s.tree.Update(ctx)
		if err != nil {
			// The tree commit is transactional: its caches and the DynRow
			// baselines are untouched, so the violating blocks re-trigger on
			// the next update. No stale flag needed — shards that already
			// committed simply report zero work on the retry.
			return err
		}
		counts[s.id] = n
		e.met.observeShard(s.id, n, start)
		return nil
	}); err != nil {
		return 0, err
	}
	rebuilt := 0
	for _, n := range counts {
		rebuilt += n
	}
	if err := stage(ctx, "audit", func(context.Context) error { return e.selfCheckLocked() }); err != nil {
		return 0, err
	}
	if publish {
		obs.Stage(ctx, "publish", func(context.Context) { e.publishLocked() })
	}
	return rebuilt, nil
}

// validateEvents checks every event of a batch against the embedder's
// fixed capacity (see Config.MaxNodes). The capacity is immutable after
// New, so this needs no lock; the durable layer calls it before logging
// a batch so nothing unreplayable ever reaches the WAL.
func (e *Embedder) validateEvents(events []Event) error {
	capacity := e.shards[0].prox.M.Cols()
	for i, ev := range events {
		if ev.U < 0 || int(ev.U) >= capacity {
			return &NodeRangeError{Index: i, Node: ev.U, MaxNodes: capacity}
		}
		if ev.V < 0 || int(ev.V) >= capacity {
			return &NodeRangeError{Index: i, Node: ev.V, MaxNodes: capacity}
		}
	}
	return nil
}

// Rebuild recomputes PPR, proximity and the full tree from scratch on the
// current graph — the Tree-SVD-S path, useful after massive changes
// (Theorem 3.7's O(|S|/r_max) fallback). On success a new snapshot is
// published; on error/cancellation the last snapshot stays intact.
func (e *Embedder) Rebuild(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	err := e.rebuildLocked(ctx)
	if err == nil {
		e.met.rebuilds.Inc()
	}
	if h := e.trace; h != nil {
		h(obs.TraceEvent{Kind: obs.TraceRebuild, Block: -1, Dur: time.Since(start), Err: err})
	}
	return err
}

// rebuildLocked is the body of Rebuild. Caller holds e.mu.
func (e *Embedder) rebuildLocked(ctx context.Context) error {
	if err := stage(ctx, "ppr.apply", func(ctx context.Context) error {
		e.stale = true
		if err := e.forEachShard(ctx, func(s *shard) error {
			if err := s.prox.Sub.Rebuild(ctx); err != nil {
				return err
			}
			s.prox.RefreshAll()
			return nil
		}); err != nil {
			return err
		}
		e.stale = false
		return nil
	}); err != nil {
		return err
	}
	if err := e.forEachShard(ctx, func(s *shard) error { return s.tree.Build(ctx) }); err != nil {
		return err
	}
	if err := stage(ctx, "audit", func(context.Context) error { return e.selfCheckLocked() }); err != nil {
		return err
	}
	obs.Stage(ctx, "publish", func(context.Context) { e.publishLocked() })
	return nil
}

// selfCheckLocked runs the invariant auditors when Config.SelfCheck is
// set. On failure the update is aborted before publishing and the stale
// flag routes the next update through full-rebuild recovery — the
// corrupted internal state is never served. Caller holds e.mu.
func (e *Embedder) selfCheckLocked() error {
	if !e.cfg.SelfCheck {
		return nil
	}
	if err := e.auditLocked(); err != nil {
		e.stale = true
		return fmt.Errorf("treesvd: self-check: %w", err)
	}
	return nil
}

// auditLocked runs the cheap internal/check auditors over every pipeline
// layer of every shard, then the cross-shard consistency audit. Caller
// holds e.mu.
func (e *Embedder) auditLocked() error {
	views := make([]check.ShardView, len(e.shards))
	for i, s := range e.shards {
		if err := check.PPRSubset(s.prox.Sub); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if err := check.DynRow(s.prox.M); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if err := check.Tree(s.tree); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		views[i] = check.ShardView{Lo: s.lo, Hi: s.hi, Sub: s.prox.Sub, M: s.prox.M}
	}
	return check.Shards(e.g, e.subset, views)
}

// Audit verifies the pipeline's internal invariants (PPR push invariant
// and mass accounting, proximity bookkeeping recount, tree cache shapes)
// and returns the first violation, or nil when everything is consistent.
// It takes the update lock, so it is safe to call concurrently with
// updates. See Config.SelfCheck for running it automatically.
func (e *Embedder) Audit() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.auditLocked()
}

// ReconstructionError returns ‖U·Σ·Ṽ − M‖_F of the current factorization
// against the live proximity matrix — the observable counterpart of the
// Theorem 3.2 approximation guarantee. It takes the update lock.
func (e *Embedder) ReconstructionError() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.shards) == 1 {
		return e.shards[0].tree.ReconstructionError()
	}
	// Merge the live per-shard roots above the shard boundary and apply
	// the same projection identity over the row-stacked matrix.
	w := par.Workers(e.cfg.Workers)
	roots := make([]*linalg.SVDResult, len(e.shards))
	ws := make([]*linalg.Dense, len(e.shards))
	for i, s := range e.shards {
		roots[i] = s.tree.Root()
		ws[i] = s.prox.M.TMulDense(roots[i].U)
	}
	mr, err := core.MergeShardRoots(roots, ws, e.cfg.Dim, w)
	if err != nil {
		// Shapes come straight from the live trees; a mismatch is a
		// programming error, not a runtime condition.
		panic(err)
	}
	return mr.ReconstructionError(ws, e.proximityFrobLocked(), w)
}

// ProximityFrobNorm returns ‖M‖_F of the live proximity matrix, the
// scale against which the Theorem 3.2/3.7 error bounds are stated. It
// takes the update lock.
func (e *Embedder) ProximityFrobNorm() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.proximityFrobLocked()
}

// proximityFrobLocked returns ‖M‖_F over the row-stacked per-shard
// matrices: rows partition M, so ‖M‖²_F = Σ_i ‖M_i‖²_F. Caller holds
// e.mu.
func (e *Embedder) proximityFrobLocked() float64 {
	if len(e.shards) == 1 {
		return e.shards[0].prox.M.FrobNorm()
	}
	sq := 0.0
	for _, s := range e.shards {
		f := s.prox.M.FrobNorm()
		sq += f * f
	}
	return math.Sqrt(sq)
}

// Snapshot returns the currently published immutable snapshot. Safe from
// any goroutine; never nil.
func (e *Embedder) Snapshot() *Snapshot { return e.snap.Load() }

// Version returns the version counter of the current snapshot; it
// increases by one with every published update.
func (e *Embedder) Version() uint64 { return e.Snapshot().Version() }

// Embedding returns the |S|×d subset embedding X = U√Σ of the current
// snapshot as a row-major matrix: row i embeds Subset()[i].
func (e *Embedder) Embedding() [][]float64 { return e.Snapshot().Embedding() }

// RightEmbedding returns the n×d right-factor embedding Y = Ṽ√Σ of the
// current snapshot (row v embeds graph node v); score candidate links
// from subset node s to any node v as dot(X[s], Y[v]).
func (e *Embedder) RightEmbedding() [][]float64 { return e.Snapshot().RightEmbedding() }

// Recommend returns the top-k candidate targets for subset node s from
// the current snapshot; see Snapshot.Recommend.
func (e *Embedder) Recommend(s int32, k int) ([]Recommendation, error) {
	return e.Snapshot().Recommend(s, k)
}

// Stats reports the work done by the last ApplyEvents/Rebuild.
type Stats struct {
	// Level1Rebuilt counts re-factored level-1 blocks; Skipped counts
	// blocks served from cache; UpperRebuilt counts merges above level 1.
	Level1Rebuilt, Skipped, UpperRebuilt int
}

// LastStats returns the factorization work counters of the update that
// published the current snapshot.
func (e *Embedder) LastStats() Stats { return e.Snapshot().Stats() }

// Graph returns a read-only view of the embedded graph that is safe to
// use concurrently with ApplyEvents: every accessor serializes with the
// update path on the embedder's internal mutex, so callers never observe
// a half-applied batch. The live *Graph itself is owned by the update
// path and is no longer handed out — an earlier version of this method
// returned it guarded only by a doc comment, which made every caller a
// latent data race once ingest went concurrent.
//
// Accessors are cheap (a mutex acquisition plus an O(1) or O(degree)
// read) but do contend with updates; for bulk scoring reads use Snapshot,
// which is lock-free. Do not call view accessors from inside a TraceHook:
// hooks run on update goroutines that already hold the lock.
func (e *Embedder) Graph() GraphView { return GraphView{e: e} }

// GraphView is a concurrency-safe, read-only window onto an Embedder's
// live graph. The zero value is not usable; obtain one from
// Embedder.Graph. Methods never panic on out-of-range node ids — they
// report zero degrees, no edges and nil neighbor lists instead, so a
// serving layer can probe arbitrary client-supplied ids safely.
type GraphView struct {
	e *Embedder
}

// NumNodes returns the graph's current node count.
func (v GraphView) NumNodes() int {
	v.e.mu.Lock()
	defer v.e.mu.Unlock()
	return v.e.g.NumNodes()
}

// NumEdges returns the graph's current edge count.
func (v GraphView) NumEdges() int {
	v.e.mu.Lock()
	defer v.e.mu.Unlock()
	return v.e.g.NumEdges()
}

// HasEdge reports whether the directed edge (u,w) currently exists.
func (v GraphView) HasEdge(u, w int32) bool {
	v.e.mu.Lock()
	defer v.e.mu.Unlock()
	return v.e.g.HasEdge(u, w)
}

// OutDeg returns u's current out-degree, or 0 if u is not a node.
func (v GraphView) OutDeg(u int32) int {
	v.e.mu.Lock()
	defer v.e.mu.Unlock()
	if u < 0 || int(u) >= v.e.g.NumNodes() {
		return 0
	}
	return v.e.g.OutDeg(u)
}

// InDeg returns u's current in-degree, or 0 if u is not a node.
func (v GraphView) InDeg(u int32) int {
	v.e.mu.Lock()
	defer v.e.mu.Unlock()
	if u < 0 || int(u) >= v.e.g.NumNodes() {
		return 0
	}
	return v.e.g.InDeg(u)
}

// OutNeighbors returns a copy of u's current out-neighbor list (nil if u
// is not a node). The copy is the caller's to keep: unlike the slices the
// graph itself hands out, it is not invalidated by later updates.
func (v GraphView) OutNeighbors(u int32) []int32 {
	v.e.mu.Lock()
	defer v.e.mu.Unlock()
	if u < 0 || int(u) >= v.e.g.NumNodes() {
		return nil
	}
	return append([]int32(nil), v.e.g.OutNeighbors(u)...)
}

// InNeighbors returns a copy of u's current in-neighbor list (nil if u is
// not a node). Same ownership as OutNeighbors.
func (v GraphView) InNeighbors(u int32) []int32 {
	v.e.mu.Lock()
	defer v.e.mu.Unlock()
	if u < 0 || int(u) >= v.e.g.NumNodes() {
		return nil
	}
	return append([]int32(nil), v.e.g.InNeighbors(u)...)
}
