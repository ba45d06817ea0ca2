package treesvd

import (
	"context"
	"time"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/obs"
	"github.com/tree-svd/treesvd/internal/rsvd"
	"github.com/tree-svd/treesvd/internal/wal"
)

// Registry is a named collection of metrics that can be snapshotted and
// served over HTTP: expvar-style JSON by default, the Prometheus text
// exposition format with ?format=prometheus (or an Accept header
// preferring text/plain). Every Embedder owns one — mount it wherever the
// operator wants the endpoint:
//
//	http.Handle("/metrics", emb.MetricsRegistry())
type Registry = obs.Registry

// TraceHook receives pipeline trace events; install one with
// Embedder.SetTraceHook or DurableConfig.Trace. A nil hook costs one
// branch per fire site; a non-nil hook runs inline on pipeline goroutines
// (including factorization workers and the background checkpoint
// goroutine), so implementations must be fast and safe for concurrent
// use. See TraceEvent for the ordering contract.
type TraceHook = obs.TraceHook

// TraceEvent is the payload handed to a TraceHook. Per update the hook
// sees exactly one TraceBatchStart, then zero or more concurrent
// TraceBlockRecompute, then exactly one TraceBatchEnd (Err non-nil on
// failure); TraceRebuild, TraceCheckpoint and TraceRecovery fire outside
// that bracket.
type TraceEvent = obs.TraceEvent

// TraceKind identifies which pipeline event a TraceEvent reports.
type TraceKind = obs.TraceKind

// Trace event kinds; see the obs package for the per-kind field contract.
const (
	TraceBatchStart     = obs.TraceBatchStart
	TraceBlockRecompute = obs.TraceBlockRecompute
	TraceBatchEnd       = obs.TraceBatchEnd
	TraceRebuild        = obs.TraceRebuild
	TraceCheckpoint     = obs.TraceCheckpoint
	TraceRecovery       = obs.TraceRecovery
	TraceShed           = obs.TraceShed
	TraceDegraded       = obs.TraceDegraded
	// TraceBlockUpdate is retired and never fired; named by
	// benchmark/trace.go, delete with ROADMAP item 1's seam.
	TraceBlockUpdate = obs.TraceBlockUpdate
)

// StageLabel is the pprof label key the pipeline sets around every stage
// (ppr.apply, tree.level1, tree.merge, audit, publish). Profile a running
// embedder and focus on one stage with
//
//	go tool pprof -tagfocus treesvd_stage=tree.level1 cpu.out
const StageLabel = obs.StageLabel

// DurationStats summarizes a latency distribution: lifetime count and
// mean, plus min/max/quantiles over a sliding window of recent
// observations (see Metrics for which operation each instance spans).
type DurationStats struct {
	// Count is the lifetime number of observations; Mean the lifetime
	// average.
	Count uint64
	Mean  time.Duration
	// Min, Max and the quantiles describe the recent-window distribution.
	Min, Max, P50, P90, P99, P999 time.Duration
}

func durStats(h obs.HistStats) DurationStats {
	return DurationStats{
		Count: h.Count,
		Mean:  time.Duration(h.Mean()),
		Min:   time.Duration(h.Min),
		Max:   time.Duration(h.Max),
		P50:   time.Duration(h.P50),
		P90:   time.Duration(h.P90),
		P99:   time.Duration(h.P99),
		P999:  time.Duration(h.P999),
	}
}

// WALMetrics is the durability slice of Metrics, present only for
// embedders managed by a DurableEmbedder.
type WALMetrics struct {
	// Appends counts logged batches; AppendedBytes their on-disk record
	// bytes. Fsyncs counts File.Sync calls (append, rotation, segment
	// creation, close); Rotations counts segment rollovers; Checkpoints
	// counts committed checkpoints.
	Appends, AppendedBytes, Fsyncs, Rotations, Checkpoints uint64
	// Append spans whole WAL appends (their fsync included), Fsync
	// the fsync calls alone, Checkpoint the full checkpoint commits
	// (write + prune).
	Append, Fsync, Checkpoint DurationStats
}

// Metrics is a point-in-time view of the pipeline's cumulative work
// counters — the observable form of the paper's cost model. All counts
// are lifetime totals since New/Open (metrics are not persisted); read it
// twice and subtract to rate a window. Each field is read atomically, the
// struct as a whole is approximately consistent with concurrent updates.
type Metrics struct {
	// Pushes counts Forward-Push PUSH operations (the O(1/r_max) term of
	// Theorem 3.7); Adjusts the Algorithm 2 corrections executed (the τ
	// term: one per event and PPR state whose estimate or residue the
	// event's tail touches, so it tracks reach, not |S|); StatesRepaired
	// the PPR states a batch adjusted or pushed (per batch, of 2·|S|);
	// SourceRebuilds per-source from-scratch PPR rebuilds (the
	// O(|S|/r_max) fallback).
	Pushes, Adjusts, StatesRepaired, SourceRebuilds uint64
	// TreeBuilds counts full Build passes, TreeUpdates lazy Update
	// passes. BlocksRebuilt/BlocksSkipped accumulate the per-pass Eqn. 2
	// outcomes (their ratio is the lazy skip rate); UpperMerges counts
	// exact SVD merges above level 1, UpperProjections the dirty upper
	// nodes that published a refined copy of their cached factor instead
	// (the upper-level gate, DESIGN.md §5).
	TreeBuilds, TreeUpdates       uint64
	BlocksRebuilt, BlocksSkipped  uint64
	UpperMerges, UpperProjections uint64
	// BlocksUpdated is retired and always 0; named by benchmark/layers.go,
	// delete with ROADMAP item 1's seam.
	BlocksUpdated uint64
	// BlockFactor spans one level-1 block factorization, Merge one upper
	// merge sweep, TreePass one whole Build/Update.
	BlockFactor, Merge, TreePass DurationStats
	// BatchesApplied counts successful ApplyEvents batches and
	// EventsApplied their events; Rebuilds counts successful full
	// Rebuild calls. Batch spans each ApplyEvents attempt end to end.
	BatchesApplied, EventsApplied, Rebuilds uint64
	Batch                                   DurationStats
	// SnapshotsPublished counts published snapshots; SnapshotAge is the
	// time since the last publish (how stale readers currently are).
	SnapshotsPublished uint64
	SnapshotAge        time.Duration
	// PoolHits/PoolMisses are the process-wide linalg scratch-pool
	// counters (shared across embedders in the same process).
	PoolHits, PoolMisses uint64
	// WAL is nil unless this embedder is managed by a DurableEmbedder.
	WAL *WALMetrics
}

// pipelineMetrics is the facade layer's own instrumentation, owned by one
// Embedder. seq is guarded by e.mu (updates are serialized); everything
// else is atomic.
type pipelineMetrics struct {
	seq              uint64 // batch attempt counter, for TraceEvent.Seq
	batches, events  obs.Counter
	rebuilds         obs.Counter
	batchNanos       obs.Histogram
	snapshots        obs.Counter
	lastPublishNanos obs.Gauge // unix nanos of the last publish, 0 before
	reg              *obs.Registry
}

// durableMetrics is the durability layer's instrumentation, owned by one
// DurableEmbedder and linked into the wrapped embedder's Metrics/registry.
type durableMetrics struct {
	wal         wal.Metrics
	checkpoints obs.Counter
	ckptNanos   obs.Histogram
	degraded    obs.Gauge // 1 while sealed read-only, else 0
	seals       obs.Counter
	reopens     obs.Counter
}

// ageNanos returns nanoseconds since the last snapshot publish (0 before
// the first publish).
func (p *pipelineMetrics) ageNanos() int64 {
	last := p.lastPublishNanos.Load()
	if last == 0 {
		return 0
	}
	return time.Now().UnixNano() - last
}

// newPipelineMetrics builds the embedder's metric set and registry. Every
// metric the embedder exposes through Metrics() is also registered here,
// under stable Prometheus-style names, so the HTTP endpoint and the
// programmatic API never drift apart.
func newPipelineMetrics(e *Embedder) *pipelineMetrics {
	p := &pipelineMetrics{reg: obs.NewRegistry()}
	r := p.reg
	pm := e.prox.Sub.Metrics()
	r.Counter("treesvd_ppr_pushes_total", "ops",
		"Forward-Push PUSH operations (Theorem 3.7's 1/r_max term)", &pm.Pushes)
	r.Counter("treesvd_ppr_adjusts_total", "ops",
		"Algorithm 2 estimate corrections executed (the tau term; tracks reach, not |S|)", &pm.Adjusts)
	r.Counter("treesvd_ppr_states_repaired_total", "states",
		"PPR states a batch's repair adjusted or pushed (of 2|S| per batch)", &pm.StatesRepaired)
	r.Counter("treesvd_ppr_source_rebuilds_total", "sources",
		"Per-source from-scratch PPR rebuilds (the |S|/r_max fallback)", &pm.SourceRebuilds)
	tm := e.tree.Metrics()
	r.Counter("treesvd_tree_builds_total", "passes", "Full Tree-SVD Build passes", &tm.Builds)
	r.Counter("treesvd_tree_updates_total", "passes", "Lazy Update passes (Algorithm 4)", &tm.Updates)
	r.Counter("treesvd_tree_blocks_rebuilt_total", "blocks",
		"Level-1 blocks re-factored by the Eqn. 2 trigger", &tm.BlocksRebuilt)
	r.Counter("treesvd_tree_blocks_skipped_total", "blocks",
		"Level-1 blocks served from cache", &tm.BlocksSkipped)
	r.Counter("treesvd_tree_upper_merges_total", "merges",
		"Exact SVD merges above level 1 (affected ancestors plus root)", &tm.UpperMerges)
	r.Counter("treesvd_tree_upper_projections_total", "nodes",
		"Dirty upper nodes that published a refined copy of their cached factor", &tm.UpperProjections)
	r.Histogram("treesvd_tree_block_factor_nanos", "ns",
		"Wall time per level-1 block factorization", &tm.BlockFactorNanos)
	r.Histogram("treesvd_tree_merge_nanos", "ns",
		"Wall time per upper merge sweep", &tm.MergeNanos)
	r.Histogram("treesvd_tree_pass_nanos", "ns",
		"Wall time per whole Build/Update pass", &tm.PassNanos)
	r.Counter("treesvd_batches_applied_total", "batches",
		"Successful ApplyEvents batches", &p.batches)
	r.Counter("treesvd_events_applied_total", "events",
		"Edge events in successful batches", &p.events)
	r.Counter("treesvd_rebuilds_total", "rebuilds", "Successful full Rebuild calls", &p.rebuilds)
	r.Histogram("treesvd_batch_nanos", "ns",
		"Wall time per ApplyEvents attempt, end to end", &p.batchNanos)
	r.Counter("treesvd_snapshots_published_total", "snapshots",
		"Snapshots published by New/ApplyEvents/Rebuild", &p.snapshots)
	r.GaugeFunc("treesvd_snapshot_age_seconds", "s",
		"Seconds since the last snapshot publish", func() float64 {
			return float64(p.ageNanos()) / 1e9
		})
	r.CounterFunc("treesvd_pool_hits_total", "gets",
		"Process-wide linalg scratch-pool hits", func() uint64 {
			h, _ := linalg.PoolStats()
			return h
		})
	r.CounterFunc("treesvd_pool_misses_total", "gets",
		"Process-wide linalg scratch-pool misses (fresh allocations)", func() uint64 {
			_, m := linalg.PoolStats()
			return m
		})
	r.CounterFunc("treesvd_rsvd_sparse_total", "calls",
		"Process-wide randomized sparse SVD factorizations", func() uint64 {
			return rsvd.Stats().Sparse
		})
	return p
}

// registerDurable links the durable layer's metrics into the embedder:
// they appear in Metrics().WAL and in the registry. Called once, before
// the durable embedder is returned to the caller.
func (e *Embedder) registerDurable(dm *durableMetrics) {
	e.mu.Lock()
	e.durMet = dm
	e.mu.Unlock()
	r := e.met.reg
	r.Counter("treesvd_wal_appends_total", "records", "WAL records appended", &dm.wal.Appends)
	r.Counter("treesvd_wal_appended_bytes_total", "bytes",
		"On-disk bytes of appended WAL records", &dm.wal.AppendedBytes)
	r.Counter("treesvd_wal_fsyncs_total", "calls", "WAL fsync calls, all paths", &dm.wal.Fsyncs)
	r.Counter("treesvd_wal_rotations_total", "segments", "WAL segment rollovers", &dm.wal.Rotations)
	r.Histogram("treesvd_wal_append_nanos", "ns",
		"Wall time per WAL append (its fsync included)", &dm.wal.AppendNanos)
	r.Histogram("treesvd_wal_fsync_nanos", "ns", "Wall time per WAL fsync", &dm.wal.FsyncNanos)
	r.Counter("treesvd_checkpoints_total", "checkpoints",
		"Committed durable checkpoints", &dm.checkpoints)
	r.Histogram("treesvd_checkpoint_nanos", "ns",
		"Wall time per checkpoint commit (write plus prune)", &dm.ckptNanos)
	r.Gauge("treesvd_degraded", "state",
		"1 while the durable embedder is sealed read-only after a WAL I/O failure", &dm.degraded)
	r.Counter("treesvd_degraded_seals_total", "transitions",
		"Transitions into read-only degraded mode", &dm.seals)
	r.Counter("treesvd_degraded_reopens_total", "transitions",
		"Successful Reopen calls restoring ingest after degraded mode", &dm.reopens)
}

// Metrics returns a point-in-time view of the pipeline's cumulative work
// counters. Safe from any goroutine, any time; see Metrics for what each
// field means and MetricsRegistry for the HTTP form of the same data.
func (e *Embedder) Metrics() Metrics {
	pm := e.prox.Sub.Metrics()
	tm := e.tree.Metrics()
	hits, misses := linalg.PoolStats()
	m := Metrics{
		Pushes:             pm.Pushes.Load(),
		Adjusts:            pm.Adjusts.Load(),
		StatesRepaired:     pm.StatesRepaired.Load(),
		SourceRebuilds:     pm.SourceRebuilds.Load(),
		TreeBuilds:         tm.Builds.Load(),
		TreeUpdates:        tm.Updates.Load(),
		BlocksRebuilt:      tm.BlocksRebuilt.Load(),
		BlocksSkipped:      tm.BlocksSkipped.Load(),
		UpperMerges:        tm.UpperMerges.Load(),
		UpperProjections:   tm.UpperProjections.Load(),
		BlockFactor:        durStats(tm.BlockFactorNanos.Snapshot()),
		Merge:              durStats(tm.MergeNanos.Snapshot()),
		TreePass:           durStats(tm.PassNanos.Snapshot()),
		BatchesApplied:     e.met.batches.Load(),
		EventsApplied:      e.met.events.Load(),
		Rebuilds:           e.met.rebuilds.Load(),
		Batch:              durStats(e.met.batchNanos.Snapshot()),
		SnapshotsPublished: e.met.snapshots.Load(),
		SnapshotAge:        time.Duration(e.met.ageNanos()),
		PoolHits:           hits,
		PoolMisses:         misses,
	}
	if dm := e.loadDurMet(); dm != nil {
		m.WAL = &WALMetrics{
			Appends:       dm.wal.Appends.Load(),
			AppendedBytes: dm.wal.AppendedBytes.Load(),
			Fsyncs:        dm.wal.Fsyncs.Load(),
			Rotations:     dm.wal.Rotations.Load(),
			Checkpoints:   dm.checkpoints.Load(),
			Append:        durStats(dm.wal.AppendNanos.Snapshot()),
			Fsync:         durStats(dm.wal.FsyncNanos.Snapshot()),
			Checkpoint:    durStats(dm.ckptNanos.Snapshot()),
		}
	}
	return m
}

// loadDurMet reads the durable-metrics link under the update lock (it is
// written once, before the DurableEmbedder escapes its constructor).
func (e *Embedder) loadDurMet() *durableMetrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.durMet
}

// MetricsRegistry returns the embedder's metric registry — every counter
// Metrics() reports, under stable treesvd_* names — ready to mount as an
// HTTP handler or to scrape programmatically via its Snapshot/Write
// methods.
func (e *Embedder) MetricsRegistry() *Registry { return e.met.reg }

// SetTraceHook installs (or clears, with nil) the hook receiving pipeline
// trace events; see TraceHook for the contract. It serializes with
// updates, so it is safe to call at any time, but is typically set once
// after New. For durable embedders prefer DurableConfig.Trace, which also
// covers checkpoint and recovery events.
func (e *Embedder) SetTraceHook(h TraceHook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.trace = h
	e.tree.SetTrace(h)
}

// stage runs f under an obs pprof stage label, returning its error.
func stage(ctx context.Context, name string, f func(context.Context) error) error {
	var err error
	obs.Stage(ctx, name, func(ctx context.Context) { err = f(ctx) })
	return err
}
