// Package treesvd is the public facade of the Tree-SVD library: efficient
// subset node embedding over large dynamic graphs via hierarchical
// truncated SVD with lazy updates (SIGMOD 2023).
//
// The typical lifecycle is:
//
//	g := treesvd.NewGraphN(0)                  // or load an event stream
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
	"sync"
	"sync/atomic"
	"time"

	"github.com/tree-svd/treesvd/internal/check"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/obs"
	"github.com/tree-svd/treesvd/internal/ppr"
)

// Graph is a dynamic directed graph. The zero value is not usable; call
// NewGraphN.
type Graph = graph.Graph

// Event is an edge insertion or deletion.
type Event = graph.Event

// Event types.
const (
	Insert = graph.Insert
	Delete = graph.Delete
)

// NewGraphN returns a dynamic graph with n isolated nodes; InsertEdge
// creates further nodes on demand.
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
	// Workers parallelizes per-source PPR work and per-block
	// factorizations (0 or 1 = sequential). Results are identical for any
	// worker count.
	Workers int
	// Retired; named by benchmark/trace.go, delete with ROADMAP item 1's
	// seam. New, FactorizeMatrix and Load reject any non-zero value, except
	// Shards 1, which like 0 always meant one tree over the whole subset.
	Shards         int
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
	return Config{Dim: 32, Alpha: 0.15, RMax: 1e-4, Branch: 8, Levels: 3, Delta: 0.65, Seed: 1}
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
	case c.Shards != 0 && c.Shards != 1:
		return c, fmt.Errorf("treesvd: Shards %d: subset sharding was removed; an embedder runs one tree over the whole subset (Shards 0 and 1 both mean that)", c.Shards)
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
	c.Shards = 0
	return c, nil
}

// Embedder maintains subset embeddings over a dynamic graph. New and Load
// return one that lives in memory; Create and Open return one with a
// write-ahead log attached, which logs every batch before it is published
// (see Create).
//
// Concurrency contract: ApplyEvents, Rebuild and Save serialize on an
// internal mutex (safe from any goroutine); Snapshot, Embedding,
// RightEmbedding, Recommend, LastStats, Subset and Version are lock-free
// reads of the last published snapshot and are safe to call concurrently
// with an in-flight update. The live graph is never handed out; the
// snapshot's NumNodes and NumEdges report the graph it was published
// from.
type Embedder struct {
	cfg    Config
	subset []int32
	rowOf  map[int32]int

	mu sync.Mutex // serializes updates (ApplyEvents/Rebuild/Save)
	// g is the live graph; prox holds the subset's forward/reverse PPR
	// states over it and the proximity matrix they fill, and tree is the
	// Tree-SVD over that matrix.
	g    *graph.Graph
	prox *ppr.Proximity
	tree *core.Tree
	// stale is set when a cancelled/failed update left the PPR estimates
	// out of sync with the already-advanced graph; the next update then
	// takes the full-rebuild path to recover.
	stale bool
	// subsetOutChanged is set when a batch since the last publish had an
	// event out of a subset node, which may have moved that node's
	// exclusion list; publish rebuilds the lists and clears it.
	subsetOutChanged bool
	// trace receives pipeline events when set (see SetTraceHook), and
	// stages is the clock of the stage table (see update.run); both are
	// guarded by mu.
	trace  obs.TraceHook
	stages obs.Stages
	// log is the write-ahead log of a store Create or Open made, nil for
	// New and Load; set before the embedder is returned, never changed.
	log *durableLog

	met     *pipelineMetrics
	version atomic.Uint64
	snap    atomic.Pointer[Snapshot]
	// retired is the matrix the last publish swapped out, which the next
	// build writes into if no read still pins it (see pin); guarded by mu.
	retired retiredMatrix
}

// pipeline derives the PPR parameters and tree configuration from a
// defaulted Config, validating both (used by New and Load).
func (c Config) pipeline() (ppr.Params, core.Config, error) {
	params := ppr.Params{Alpha: c.Alpha, RMax: c.RMax, Workers: c.Workers, Met: &ppr.Metrics{}}
	tcfg := core.Config{
		Rank: c.Dim, Branch: c.Branch, Levels: c.Levels,
		Delta: c.Delta, Seed: c.Seed, Workers: c.Workers,
	}
	if err := params.Validate(); err != nil {
		return params, tcfg, err
	}
	return params, tcfg, tcfg.Validate()
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
	params, tcfg, err := cfg.pipeline()
	if err != nil {
		return nil, err
	}
	maxNodes := cfg.MaxNodes
	if maxNodes < g.NumNodes() {
		maxNodes = g.NumNodes()
	}
	sub, err := ppr.NewSubset(g, subset, params)
	if err != nil {
		return nil, err
	}
	prox := ppr.NewProximity(sub, maxNodes, tcfg.Blocks())
	tree, err := core.NewTree(prox.M, tcfg)
	if err != nil {
		return nil, err
	}
	if err := tree.Build(context.Background()); err != nil {
		return nil, err
	}
	e := newEmbedder(cfg, subset, g, prox, tree)
	e.publishLocked()
	return e, nil
}

// newEmbedder wires the fields New and Load share.
func newEmbedder(cfg Config, subset []int32, g *graph.Graph, prox *ppr.Proximity, tree *core.Tree) *Embedder {
	e := &Embedder{
		cfg:    cfg,
		subset: append([]int32(nil), subset...),
		rowOf:  make(map[int32]int, len(subset)),
		g:      g,
		prox:   prox,
		tree:   tree,
	}
	for i, v := range e.subset {
		e.rowOf[v] = i
	}
	e.met = newPipelineMetrics(e)
	tree.Observe(&e.stages, nil)
	return e
}

// Subset returns the embedded node ids in row order.
func (e *Embedder) Subset() []int32 { return append([]int32(nil), e.subset...) }

// ApplyEvents advances the graph through a batch of edge events and
// lazily refreshes the factorization, publishing a new snapshot on
// success. It returns the number of level-1 blocks that were re-factored
// (0 when every block stayed within the Eqn. 2 tolerance).
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
//
// On a durable store (Create, Open) the batch is published, and the call
// returns, only once its WAL record is fsynced; a ctx error then means the
// batch was neither logged nor applied (see Create).
func (e *Embedder) ApplyEvents(ctx context.Context, events []Event) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.log != nil {
		return e.applyLoggedLocked(ctx, events)
	}
	return e.applyEventsLocked(ctx, events, publishNow)
}

// publishNow is the publish barrier of a batch nothing else waits on.
func publishNow() error { return nil }

// applyEventsLocked is the body of ApplyEvents. Caller holds e.mu.
// publish is the barrier the batch's snapshot waits on: once the batch is
// applied the snapshot is built (a copy of the proximity matrix that
// re-gathers only the rows changed since the last one, plus the exclusion
// lists when a subset node's out-edges moved), then publish runs, and the
// snapshot is stored only if it returns nil — else its error is the
// batch's. A nil publish builds no snapshot, letting WAL replay fold many
// batches and publish once at the end. It wraps the batch in the trace
// bracket (one TraceBatchStart, one TraceBatchEnd — including on error)
// and records the facade-level batch metrics; the pipeline work itself
// runs in the stage table (see update).
func (e *Embedder) applyEventsLocked(ctx context.Context, events []Event, publish func() error) (int, error) {
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
	return e.applyValidLocked(ctx, events, publish)
}

// applyValidLocked is applyEventsLocked on a batch validateEvents has
// accepted: a durable store validates before it logs, and only once.
func (e *Embedder) applyValidLocked(ctx context.Context, events []Event, publish func() error) (int, error) {
	e.met.seq++
	seq := e.met.seq
	if h := e.trace; h != nil {
		h(obs.TraceEvent{Kind: obs.TraceBatchStart, Seq: seq, Block: -1, Events: len(events)})
	}
	u := update{e: e, events: events, full: e.stale || e.prox.Sub.RebuildThreshold(len(events)), publish: publish}
	start := time.Now()
	rebuilt, err := 0, u.run(ctx)
	dur := e.stages.Since(start)
	if err == nil {
		rebuilt = u.rebuilt
		e.met.batches.Inc()
		e.met.events.Add(uint64(len(events)))
	}
	e.met.batchNanos.Observe(int64(dur))
	if h := e.trace; h != nil {
		h(obs.TraceEvent{Kind: obs.TraceBatchEnd, Seq: seq, Block: -1, Events: len(events),
			Rebuilt: rebuilt, Dur: dur, Stages: e.stages.Times(), Err: err})
	}
	return rebuilt, err
}

// update is one run of the stage table: an ApplyEvents batch, or a
// Rebuild. Its rows read and write these fields in table order.
type update struct {
	e      *Embedder
	events []Event
	// full recomputes PPR and proximity from scratch (the Theorem 3.7
	// fallback, recovery from an interrupted update, or a Rebuild);
	// rebuild also skips the graph advance and builds the whole tree.
	full, rebuild bool
	publish       func() error // the barrier (applyEventsLocked); nil publishes nothing
	applied       []ppr.Applied
	rebuilt       int
	snap          *Snapshot
}

// run runs the stage table of Algorithm 4 — the rows of obs.Stage, in
// order — and stops at the first error. One loop enters each row the
// update takes (setting its pprof label, one clock read per boundary) and
// runs it; a tree pass that merges enters tree.merge itself. Every row
// that ran is observed into treesvd_stage_nanos, and e.stages keeps the
// times for the trace. Caller holds e.mu.
func (u *update) run(ctx context.Context) error {
	st := &u.e.stages
	st.Start(ctx)
	var err error
	for s := range obs.NumStages {
		// core enters tree.merge; a Rebuild changes no graph; no barrier, no
		// publish; a durable checkpoint captures after the run (obs.Stage.Do).
		if s == obs.StageMerge || s == obs.StageAdvance && u.rebuild || s >= obs.StagePublishBuild && u.publish == nil ||
			s == obs.StageCheckpointCapture {
			continue
		}
		st.Enter(s)
		if err = u.stage(ctx, s); err != nil {
			break
		}
	}
	st.Stop()
	for s := range obs.NumStages {
		if d, ran := st.Dur(s); ran {
			u.e.met.stages[s].Observe(int64(d))
		}
	}
	return err
}

// stage runs row s of the stage table.
func (u *update) stage(ctx context.Context, s obs.Stage) (err error) {
	e := u.e
	switch s {
	case obs.StageAdvance:
		for _, ev := range u.events {
			if _, ok := e.rowOf[ev.U]; ok {
				e.subsetOutChanged = true
				break
			}
		}
		u.applied = ppr.ApplyAll(e.g, u.events)
	case obs.StageRepair:
		// Algorithm 2 on the states the batch reached, or every state from
		// scratch. stale stays set until the refresh: after an error the
		// next update takes the from-scratch path.
		e.stale = true
		if u.full {
			return e.prox.Sub.Rebuild(ctx)
		}
		return e.prox.Sub.Repair(ctx, u.applied)
	case obs.StageRefresh:
		if u.full {
			e.prox.RefreshAll()
		} else {
			e.prox.Refresh()
		}
		e.stale = false
	case obs.StageLevel1:
		// The tree's commit is transactional: on error its caches and the
		// DynRow baselines are untouched, so the violating blocks
		// re-trigger on the next update. No stale flag needed.
		if u.rebuild {
			return e.tree.Build(ctx)
		}
		u.rebuilt, err = e.tree.Update(ctx)
	case obs.StagePublishBuild:
		u.snap = e.buildSnapshotLocked()
	case obs.StagePublishWait:
		return u.publish()
	case obs.StagePublishStore:
		e.storeSnapshotLocked(u.snap)
	}
	return err
}

// validateEvents checks every event of a batch against the embedder's
// fixed capacity (see Config.MaxNodes). The capacity is immutable after
// New; a durable store calls it before logging a batch so nothing
// unreplayable ever reaches the WAL.
func (e *Embedder) validateEvents(events []Event) error {
	capacity := e.prox.M.Cols()
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
// published; on error/cancellation the last snapshot stays intact. A
// durable store (Create, Open) refuses it and changes nothing: its log
// holds edge events only, so the rebuild would be lost at the next Open.
func (e *Embedder) Rebuild(ctx context.Context) error {
	if e.log != nil {
		return errRebuildLogged
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	u := update{e: e, full: true, rebuild: true, publish: publishNow}
	start := time.Now()
	err := u.run(ctx)
	if err == nil {
		e.met.rebuilds.Inc()
	}
	if h := e.trace; h != nil {
		h(obs.TraceEvent{Kind: obs.TraceRebuild, Block: -1, Dur: e.stages.Since(start), Stages: e.stages.Times(), Err: err})
	}
	return err
}

// auditLocked runs the cheap invariant auditors over every pipeline
// layer. Caller holds e.mu.
func (e *Embedder) auditLocked() error {
	if err := check.PPRSubset(e.prox.Sub); err != nil {
		return err
	}
	if err := e.prox.M.AuditRecount(); err != nil {
		return err
	}
	return e.tree.AuditShapes()
}

// Audit verifies the pipeline's internal invariants (PPR push invariant
// and mass accounting, proximity bookkeeping recount, tree cache shapes)
// and returns the first violation, or nil when everything is consistent.
// It takes the update lock, so it is safe to call concurrently with
// updates. Load and Open run the same auditors before their first
// snapshot; call Audit after an update to check that one.
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
	return e.tree.ReconstructionError()
}

// ProximityFrobNorm returns ‖M‖_F of the live proximity matrix, the
// scale against which the Theorem 3.2/3.7 error bounds are stated. It
// takes the update lock.
func (e *Embedder) ProximityFrobNorm() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.prox.M.FrobNorm()
}

// Snapshot returns the currently published immutable snapshot. Safe from
// any goroutine; never nil. The snapshot is pinned for life: the caller
// may hold it forever, so its arrays are never recycled.
func (e *Embedder) Snapshot() *Snapshot { return e.pin() }

// Version returns the version counter of the current snapshot; it
// increases by one with every published update.
func (e *Embedder) Version() uint64 { return e.snap.Load().Version() }

// Embedding returns the |S|×d subset embedding X = U√Σ of the current
// snapshot as a row-major matrix: row i embeds Subset()[i].
func (e *Embedder) Embedding() [][]float64 {
	s := e.pin()
	defer s.pins.Add(-1)
	return s.Embedding()
}

// RightEmbedding returns the n×d right-factor embedding Y = Ṽ√Σ of the
// current snapshot (row v embeds graph node v); score candidate links
// from subset node s to any node v as dot(X[s], Y[v]).
func (e *Embedder) RightEmbedding() [][]float64 {
	s := e.pin()
	defer s.pins.Add(-1)
	return s.RightEmbedding()
}

// Recommend returns the top-k candidate targets for subset node s from
// the current snapshot; see Snapshot.Recommend.
func (e *Embedder) Recommend(s int32, k int) ([]Recommendation, error) {
	snap := e.pin()
	defer snap.pins.Add(-1)
	return snap.Recommend(s, k)
}

// Stats reports the work done by the last ApplyEvents/Rebuild.
type Stats struct {
	// Level1Rebuilt counts re-factored level-1 blocks; Skipped counts
	// blocks served from cache; UpperRebuilt counts merges above level 1.
	Level1Rebuilt, Skipped, UpperRebuilt int
}

// LastStats returns the factorization work counters of the update that
// published the current snapshot.
func (e *Embedder) LastStats() Stats { return e.snap.Load().Stats() }
