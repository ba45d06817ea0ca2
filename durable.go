package treesvd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/wal"
)

// SyncPolicy and SyncBatch are retired with DurableConfig.Sync (see
// there).
type SyncPolicy int

// SyncBatch is retired; see SyncPolicy. It is the zero value, the one
// DurableConfig.Sync accepts.
const SyncBatch SyncPolicy = 0

// ErrNoState is returned by Open when the directory holds no durable
// state (no checkpoint was ever committed there). Use Create to start a
// new store.
var ErrNoState = errors.New("treesvd: no durable state in directory")

// errClosed reports use after Close.
var errClosed = errors.New("treesvd: durable embedder is closed")

// DurableConfig configures a durable embedder. The zero value is usable:
// per-batch fsync, a checkpoint every 64 batches, two checkpoints kept.
type DurableConfig struct {
	// Config configures the embedder itself. Create uses all of it; Open
	// restores the configuration stored in the checkpoint and reads only
	// Config.Workers here, since a checkpoint holds no worker count.
	Config Config
	// Sync is retired: every acknowledged batch is fsynced. Named by
	// benchmark/run.go, delete with ROADMAP item 1's seam. Create and Open
	// reject any value but SyncBatch (0).
	Sync SyncPolicy
	// CheckpointEvery takes a checkpoint after this many applied batches
	// (default 64): the state is captured inside ApplyEvents and written
	// by a background goroutine. Negative disables automatic checkpoints;
	// the Checkpoint method takes one synchronously.
	CheckpointEvery int
	// StrictRecovery makes Open fail with a *CorruptStateError on any
	// damage beyond a pure torn tail (a crash artifact) in the WAL it
	// replays from its checkpoint on; log the checkpoint covers is not
	// read. By default such damage degrades the log to its longest
	// verifiable prefix and is reported in RecoveryInfo instead.
	StrictRecovery bool
}

// keepCheckpoints is how many committed checkpoints a store retains. Two
// let recovery fall back past a checkpoint that fails verification; the
// WAL is pruned only up to the oldest kept checkpoint so the fallback can
// always be replayed forward.
const keepCheckpoints = 2

func (c DurableConfig) withDefaults() (DurableConfig, error) {
	if c.Sync != SyncBatch {
		return c, fmt.Errorf("treesvd: Sync %d: the fsync policies were removed; every acknowledged batch is fsynced (Sync 0, SyncBatch, means that)", c.Sync)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	return c, nil
}

// RecoveryInfo reports what Open found and repaired.
type RecoveryInfo struct {
	// CheckpointSeq is the batch seq of the checkpoint the state was
	// restored from; SkippedCheckpoints counts newer checkpoints that
	// failed verification and were bypassed.
	CheckpointSeq      uint64
	SkippedCheckpoints int
	// ReplayedBatches counts WAL batches folded in on top of the
	// checkpoint.
	ReplayedBatches int
	// TornTail is set when a physically incomplete record at the end of
	// the log was truncated — the normal artifact of a crash mid-append.
	TornTail bool
	// DroppedBatches counts batches discarded because of WAL damage beyond
	// a torn tail (lenient recovery only); DropReason describes the fault.
	DroppedBatches int
	DropReason     string
}

// DurableEmbedder wraps an Embedder with write-ahead logging and
// crash-safe checkpointing in a single directory. Every ApplyEvents batch
// is appended to the WAL — checksummed and fsynced — while it is applied
// in memory, and its snapshot is published, and the call returns, only
// once that record is durable: no reader and no caller ever sees a batch
// the log could still lose. A checkpoint (a full atomic save) is
// committed every CheckpointEvery batches, after which older WAL segments
// are pruned. Open recovers the directory to a
// committed prefix of the acknowledged stream no matter where a previous
// process stopped.
//
// Route every update through the DurableEmbedder; calling ApplyEvents or
// Rebuild directly on the wrapped Embedder would mutate state the log
// knows nothing about. Reads (Embedding, Snapshot, Recommend, ...) go to
// the wrapped Embedder and stay lock-free.
//
// A WAL append failure (full disk, fsync error) seals the embedder into
// read-only degraded mode until Close: ingest and Checkpoint return a
// *DegradedError, reads keep serving the last published snapshot, and
// Degraded reports the cause. The failed batch was applied in memory
// while its record was being written but is never published. The one way
// back is a restart: once the fault is cleared, Close (which cuts the
// failed record out of the log) and Open land on the acknowledged prefix,
// and the caller resends the batch that failed.
type DurableEmbedder struct {
	fs  wal.FS
	dir string
	cfg DurableConfig

	mu        sync.Mutex // serializes updates; ordered before e.mu
	e         *Embedder
	w         *wal.Writer
	closed    bool
	sinceCkpt int

	// degraded is the WAL I/O failure that sealed the embedder read-only
	// (nil while healthy). Guarded by mu.
	degraded error

	ckptWG   sync.WaitGroup
	ckptMu   sync.Mutex // guards the fields below; never held with mu
	ckptBusy bool
	ckptErr  error // the first background checkpoint failure

	// met holds the WAL and checkpoint counters; it is linked into the
	// wrapped embedder's Metrics/registry at construction.
	met *durableMetrics

	recovery RecoveryInfo
}

// Create initializes a new durable embedder in dir: it builds the initial
// state with New(g, subset, cfg.Config), commits it as the first
// checkpoint, and opens the WAL. It fails if dir already holds durable
// state.
func Create(dir string, g *Graph, subset []int32, cfg DurableConfig) (*DurableEmbedder, error) {
	return createDurable(wal.OS, dir, g, subset, cfg)
}

// Open recovers the durable embedder stored in dir: it restores the
// newest checkpoint that verifies (falling back past corrupt ones),
// repairs the WAL tail, replays every logged batch past the checkpoint,
// audits the result with the internal invariant checkers, and only then
// publishes the first readable snapshot. It returns ErrNoState when dir
// was never initialized with Create, and a *CorruptStateError when the
// store cannot be brought to a verified state.
func Open(dir string, cfg DurableConfig) (*DurableEmbedder, error) {
	return openDurable(wal.OS, dir, cfg)
}

// CreateWithFS is Create on an explicit filesystem. It exists for the
// internal fault-injection harness — the FS type lives in an internal
// package, so code outside this module cannot supply one; use Create.
func CreateWithFS(fsys wal.FS, dir string, g *Graph, subset []int32, cfg DurableConfig) (*DurableEmbedder, error) {
	return createDurable(fsys, dir, g, subset, cfg)
}

// OpenWithFS is Open on an explicit filesystem; see CreateWithFS.
func OpenWithFS(fsys wal.FS, dir string, cfg DurableConfig) (*DurableEmbedder, error) {
	return openDurable(fsys, dir, cfg)
}

func createDurable(fsys wal.FS, dir string, g *Graph, subset []int32, cfg DurableConfig) (*DurableEmbedder, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	if has, err := wal.HasState(fsys, dir); err != nil {
		return nil, err
	} else if has {
		return nil, fmt.Errorf("treesvd: directory %s already holds durable state", dir)
	}
	e, err := New(g, subset, cfg.Config)
	if err != nil {
		return nil, err
	}
	payload, err := e.saveBytes()
	if err != nil {
		return nil, err
	}
	// Batches are numbered from 1; checkpoint seq 0 is "nothing applied
	// beyond the initial build".
	if err := wal.WriteCheckpoint(fsys, dir, 0, payload); err != nil {
		return nil, err
	}
	dm := &durableMetrics{}
	w, err := wal.NewWriter(fsys, dir, 1, &dm.wal)
	if err != nil {
		return nil, err
	}
	e.registerDurable(dm)
	return &DurableEmbedder{fs: fsys, dir: dir, cfg: cfg, e: e, w: w, met: dm}, nil
}

func openDurable(fsys wal.FS, dir string, cfg DurableConfig) (*DurableEmbedder, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cks, err := wal.ListCheckpoints(fsys, dir)
	if err != nil {
		// A directory that does not exist holds no state; a consumer
		// probing "is there a store yet?" sees ErrNoState either way.
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoState, dir)
		}
		return nil, err
	}
	if len(cks) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoState, dir)
	}

	// Newest checkpoint that verifies and decodes wins; damaged ones are
	// bypassed. The WAL is only ever pruned up to the oldest kept
	// checkpoint, so every batch a fallback needs is still logged. A
	// foreign header version is damage: it sits outside the CRC, so it
	// cannot be told from a bit flip. An I/O failure, or a save whose
	// checksummed persistVersion is another, stops the open instead.
	var (
		e       *Embedder
		info    RecoveryInfo
		lastErr error
	)
	for i := len(cks) - 1; i >= 0; i-- {
		seq, payload, err := wal.ReadCheckpoint(fsys, dir, cks[i].Name)
		if err == nil {
			e, err = decodeEmbedder(payload, filepath.Join(dir, cks[i].Name), cfg.Config.Workers)
		}
		if err == nil {
			info.CheckpointSeq = seq
			break
		}
		if !errors.As(err, new(*CorruptStateError)) {
			return nil, err
		}
		info.SkippedCheckpoints++
		lastErr = err
	}
	if e == nil {
		return nil, lastErr
	}

	// The log the checkpoint covers is not read: a damaged record there
	// costs none of the batches after it.
	rec, err := wal.Recover(fsys, dir, info.CheckpointSeq+1, cfg.StrictRecovery)
	if err != nil {
		return nil, err
	}
	if err := wal.RemoveTempFiles(fsys, dir); err != nil {
		return nil, err
	}
	info.TornTail, info.DroppedBatches, info.DropReason = rec.TornTail, rec.Dropped, rec.DropReason

	next := info.CheckpointSeq + 1
	if err := e.finishRestore(dir, func() (err error) {
		next, err = replay(dir, rec.Records, next, func(seq uint64, events []Event) error {
			if _, err := e.applyEventsLocked(context.Background(), events, nil); err != nil {
				return &CorruptStateError{Path: dir, Offset: -1,
					Reason: fmt.Sprintf("replay of logged batch %d failed", seq), Err: err}
			}
			info.ReplayedBatches++
			return nil
		})
		return err
	}); err != nil {
		return nil, err
	}

	dm := &durableMetrics{}
	w, err := wal.NewWriter(fsys, dir, next, &dm.wal)
	if err != nil {
		return nil, err
	}
	e.registerDurable(dm)
	return &DurableEmbedder{fs: fsys, dir: dir, cfg: cfg, e: e, w: w, met: dm, recovery: info}, nil
}

// replay decodes each logged batch from next on and hands it to apply.
// Records below next were applied already; a gap is a *CorruptStateError.
// It returns the seq after the last record applied.
func replay(dir string, recs []wal.Record, next uint64, apply func(seq uint64, events []Event) error) (uint64, error) {
	for _, r := range recs {
		if r.Seq < next {
			continue
		}
		if r.Seq != next {
			return next, &CorruptStateError{Path: dir, Offset: -1,
				Reason: fmt.Sprintf("log resumes at batch %d, want %d: missing batches", r.Seq, next)}
		}
		events, err := graph.DecodeEvents(r.Payload)
		if err != nil {
			return next, &CorruptStateError{Path: dir, Offset: -1,
				Reason: fmt.Sprintf("logged batch %d does not decode", r.Seq), Err: err}
		}
		if err := apply(r.Seq, events); err != nil {
			return next, err
		}
		next++
	}
	return next, nil
}

// Embedder returns the wrapped embedder for reads (Embedding, Snapshot,
// Recommend, ...). Do not call its update methods directly — see the
// DurableEmbedder contract.
func (d *DurableEmbedder) Embedder() *Embedder { return d.e }

// Snapshot returns the wrapped embedder's published snapshot; see
// Embedder.Snapshot.
func (d *DurableEmbedder) Snapshot() *Snapshot { return d.e.Snapshot() }

// Recovery reports what Open found and repaired; the zero value after
// Create.
func (d *DurableEmbedder) Recovery() RecoveryInfo { return d.recovery }

// Metrics returns the wrapped embedder's work counters; for a durable
// embedder the WAL field is populated with the durability counters.
func (d *DurableEmbedder) Metrics() Metrics { return d.e.Metrics() }

// MetricsRegistry returns the wrapped embedder's metric registry,
// including the treesvd_wal_* and treesvd_checkpoint* series.
func (d *DurableEmbedder) MetricsRegistry() *Registry { return d.e.MetricsRegistry() }

// Dir returns the managed directory.
func (d *DurableEmbedder) Dir() string { return d.dir }

// ApplyEvents durably applies one batch: the batch is validated, then its
// WAL record is written and fsynced on a helper goroutine while the
// in-memory embedder applies the batch and builds its snapshot. The
// snapshot is published, and ApplyEvents returns, only after the fsync
// has succeeded, so once ApplyEvents returns nil the batch will survive a
// crash, and no reader saw it earlier. ApplyEvents never returns with the
// fsync still in flight.
//
// ctx is checked once, before the record is written: a ctx error means
// the batch was neither logged nor applied. Once the record is on its way
// to disk the apply is owed either way and ignores cancellation. If the
// append fails, the embedder seals into degraded mode with the batch
// applied in memory but never published; see DurableEmbedder.
// (Another error from the apply itself is an internal fault: the batch
// stays logged and in the graph, and the next update catches the rest
// of the pipeline up, as for Embedder.ApplyEvents.)
func (d *DurableEmbedder) ApplyEvents(ctx context.Context, events []Event) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, errClosed
	}
	if err := d.degradedErrLocked(); err != nil {
		return 0, err
	}
	if err := d.e.validateEvents(events); err != nil {
		return 0, err // never logged: an invalid batch must not reach replay
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	rec := d.w.Append(graph.AppendEvents(nil, events))
	rebuilt, err := d.e.applyEvents(context.WithoutCancel(ctx), events, func() error {
		_, err := rec.Wait()
		return err
	})
	// An apply that failed before its barrier did not wait: wait here.
	seq, werr := rec.Wait()
	if werr != nil {
		d.sealLocked(werr)
		return 0, d.degradedErrLocked()
	}
	if err != nil {
		return 0, err
	}
	d.sinceCkpt++
	if err := d.maybeCheckpointLocked(seq); err != nil {
		return rebuilt, err
	}
	return rebuilt, nil
}

// degradedErrLocked returns the *DegradedError every update and
// checkpoint gets while the embedder is sealed, else nil. Caller holds
// d.mu.
func (d *DurableEmbedder) degradedErrLocked() error {
	if d.degraded == nil {
		return nil
	}
	return &DegradedError{Reason: "wal append failed", Err: d.degraded}
}

// sealLocked flips the embedder into read-only degraded mode after a WAL
// append failure. Reads keep serving the published snapshot; every
// further ApplyEvents returns a *DegradedError until Close. Caller holds
// d.mu.
func (d *DurableEmbedder) sealLocked(cause error) {
	d.degraded = cause
	d.met.degraded.Set(1)
	d.met.seals.Inc()
}

// Degraded returns the WAL I/O failure that sealed the embedder into
// read-only degraded mode, or nil while ingest is healthy. The serving
// layer's /readyz probes it.
func (d *DurableEmbedder) Degraded() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}

// maybeCheckpointLocked takes the periodic checkpoint. Caller holds d.mu
// and has just acknowledged batch seq, so memory equals the log (the
// embedder is not degraded).
func (d *DurableEmbedder) maybeCheckpointLocked(seq uint64) error {
	if d.cfg.CheckpointEvery < 0 || d.sinceCkpt < d.cfg.CheckpointEvery {
		return nil
	}
	d.ckptMu.Lock()
	busy := d.ckptBusy
	if !busy {
		d.ckptBusy = true
	}
	d.ckptMu.Unlock()
	if busy {
		return nil // one in flight; the next batch re-triggers
	}
	// Capture the state synchronously — saveBytes takes e.mu, which is
	// free here — so the checkpoint is exactly the state after batch seq;
	// only the file I/O runs in the background.
	payload, err := d.e.saveBytes()
	if err != nil {
		d.ckptMu.Lock()
		d.ckptBusy = false
		d.ckptMu.Unlock()
		return err
	}
	d.w.MarkCheckpoint(seq)
	d.sinceCkpt = 0
	d.ckptWG.Add(1)
	go func() {
		defer d.ckptWG.Done()
		err := d.commitCheckpoint(seq, payload)
		d.ckptMu.Lock()
		if d.ckptErr == nil {
			d.ckptErr = err
		}
		d.ckptBusy = false
		d.ckptMu.Unlock()
	}()
	return nil
}

// checkpointLocked takes a synchronous checkpoint of the state after
// batch seq. Caller holds d.mu.
func (d *DurableEmbedder) checkpointLocked(seq uint64) error {
	d.ckptWG.Wait() // never two checkpoint writers at once
	payload, err := d.e.saveBytes()
	if err != nil {
		return err
	}
	d.w.MarkCheckpoint(seq)
	if err := d.commitCheckpoint(seq, payload); err != nil {
		return err
	}
	d.sinceCkpt = 0
	return nil
}

// commitCheckpoint publishes one checkpoint and prunes: older checkpoints
// beyond keepCheckpoints first, then WAL segments covered by the oldest
// checkpoint that remains. Safe to run concurrently with Append — it only
// touches checkpoint files and sealed segments. It records the commit, or
// its failure, in the checkpoint metrics.
func (d *DurableEmbedder) commitCheckpoint(seq uint64, payload []byte) error {
	start := time.Now()
	if err := d.writeCheckpointFiles(seq, payload); err != nil {
		d.met.ckptFailures.Inc()
		return err
	}
	d.met.checkpoints.Inc()
	d.met.ckptNanos.ObserveSince(start)
	return nil
}

// writeCheckpointFiles is the I/O body of commitCheckpoint: commit the
// checkpoint (its rename is the commit point), retire old ones, and prune
// covered WAL segments.
func (d *DurableEmbedder) writeCheckpointFiles(seq uint64, payload []byte) error {
	if err := wal.WriteCheckpoint(d.fs, d.dir, seq, payload); err != nil {
		return err
	}
	if err := wal.PruneCheckpoints(d.fs, d.dir, keepCheckpoints); err != nil {
		return err
	}
	cks, err := wal.ListCheckpoints(d.fs, d.dir)
	if err != nil {
		return err
	}
	if len(cks) == 0 {
		return nil // unreachable: the checkpoint just committed is listed
	}
	return wal.PruneSegments(d.fs, d.dir, cks[0].Seq)
}

// Checkpoint synchronously commits a checkpoint of the current state and
// prunes the WAL behind it. While degraded it returns a *DegradedError and
// writes nothing: memory holds the batch whose append failed, and a
// checkpoint of it would be labelled with the log's last seq.
func (d *DurableEmbedder) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	if err := d.degradedErrLocked(); err != nil {
		return err
	}
	return d.checkpointLocked(d.w.NextSeq() - 1)
}

// Close closes the WAL and waits for any in-flight background checkpoint.
// It reports the first deferred checkpoint error, if any; the store
// recovers regardless — the WAL still holds everything past the last
// committed checkpoint. On a degraded embedder it also cuts the record
// of the batch whose append failed out of the log, and reports that
// cut's failure too (the disk is still full, say): the batch may then
// come back at Open, like a batch in flight at a crash.
func (d *DurableEmbedder) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.ckptWG.Wait()
	d.ckptMu.Lock()
	err := d.ckptErr
	d.ckptMu.Unlock()
	return errors.Join(err, d.w.Close())
}
