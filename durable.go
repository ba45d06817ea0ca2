package treesvd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/tree-svd/treesvd/internal/wal"
)

// SyncPolicy selects when the durable embedder fsyncs WAL appends; see
// the DurableConfig.Sync field.
type SyncPolicy int

const (
	// SyncBatch fsyncs once per ApplyEvents: every batch the call
	// acknowledges survives any crash. The default, and the policy the
	// <10%-overhead acceptance benchmark is stated against.
	SyncBatch SyncPolicy = iota
	// SyncInterval fsyncs every SyncEvery batches: a crash can lose up to
	// SyncEvery-1 acknowledged batches, but never corrupts state.
	SyncInterval
	// SyncNone never fsyncs on append; the OS decides when data reaches
	// the disk. A crash loses whatever the page cache held, never more
	// than since the last checkpoint.
	SyncNone
)

// String returns the policy's name (batch, interval, none).
func (p SyncPolicy) String() string { return wal.SyncPolicy(p).String() }

// ErrNoState is returned by Open when the directory holds no durable
// state (no checkpoint was ever committed there). Use Create to start a
// new store.
var ErrNoState = errors.New("treesvd: no durable state in directory")

// errClosed reports use after Close.
var errClosed = errors.New("treesvd: durable embedder is closed")

// DurableConfig configures a durable embedder. The zero value is usable:
// per-batch fsync, a checkpoint every 64 batches, two checkpoints kept.
type DurableConfig struct {
	// Config configures the embedder itself (only used by Create;
	// Open restores the configuration stored in the checkpoint).
	Config Config
	// Sync is the WAL fsync policy; SyncEvery is the period of
	// SyncInterval (default 8).
	Sync      SyncPolicy
	SyncEvery int
	// SegmentSize rotates the WAL to a new segment file past this many
	// bytes (default 4 MiB).
	SegmentSize int64
	// CheckpointEvery takes a checkpoint after this many applied batches
	// (default 64); negative disables automatic checkpoints (use the
	// Checkpoint method).
	CheckpointEvery int
	// KeepCheckpoints retains this many committed checkpoints (default 2,
	// minimum 1). Keeping more than one lets recovery fall back past a
	// checkpoint that fails verification; the WAL is pruned only up to the
	// oldest kept checkpoint so the fallback can always be replayed
	// forward.
	KeepCheckpoints int
	// SyncCheckpoints takes checkpoints synchronously inside ApplyEvents
	// instead of in a background goroutine. Deterministic and slower; the
	// fault-injection harness depends on it.
	SyncCheckpoints bool
	// StrictRecovery makes Open fail with a *CorruptStateError on any WAL
	// damage beyond a pure torn tail (a crash artifact). By default such
	// damage degrades the log to its longest verifiable prefix and is
	// reported in RecoveryInfo instead.
	StrictRecovery bool
	// Trace receives pipeline trace events (see TraceHook), covering the
	// durable layer's TraceCheckpoint and TraceRecovery in addition to the
	// per-batch bracket. Open installs it only after WAL replay, so
	// recovery does not fire a batch event per replayed record — it fires
	// one TraceRecovery instead. DurableConfig is never persisted, which
	// is why the hook lives here and not on Config.
	Trace TraceHook
}

func (c DurableConfig) withDefaults() DurableConfig {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	if c.KeepCheckpoints < 1 {
		c.KeepCheckpoints = 2
	}
	return c
}

func (c DurableConfig) walOptions(met *wal.Metrics) wal.Options {
	return wal.Options{
		SegmentSize: c.SegmentSize,
		Sync:        wal.SyncPolicy(c.Sync),
		SyncEvery:   c.SyncEvery,
		Met:         met,
	}
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
// is appended to the WAL — checksummed and fsynced per the configured
// policy — before it mutates any in-memory state, and a checkpoint (a
// full atomic save) is committed every CheckpointEvery batches, after
// which older WAL segments are pruned. Open recovers the directory to a
// committed prefix of the acknowledged stream no matter where a previous
// process stopped.
//
// Route every update through the DurableEmbedder; calling ApplyEvents or
// Rebuild directly on the wrapped Embedder would mutate state the log
// knows nothing about. Reads (Embedding, Snapshot, Recommend, ...) go to
// the wrapped Embedder and stay lock-free.
//
// A WAL append failure (full disk, fsync error) seals the embedder into
// read-only degraded mode: ingest returns a *DegradedError, reads keep
// serving the last published snapshot, Degraded reports the cause, and
// Reopen re-arms the WAL once the operator has cleared the fault.
type DurableEmbedder struct {
	fs  wal.FS
	dir string
	cfg DurableConfig

	mu     sync.Mutex // serializes updates; ordered before e.mu
	e      *Embedder
	w      *wal.Writer
	closed bool
	// pending is a batch that reached the WAL but whose in-memory apply
	// failed (cancellation, self-check). It must be re-applied before
	// anything else so memory never falls behind the log; edge events are
	// set operations, so re-applying a partially applied batch in order is
	// idempotent.
	pending   []Event
	sinceCkpt int

	// degraded is the WAL I/O failure that sealed the embedder read-only
	// (nil while healthy); sealedNext is the writer's next sequence at
	// seal time, the point Reopen resumes the log from. Guarded by mu.
	degraded   error
	sealedNext uint64

	ckptWG   sync.WaitGroup
	ckptMu   sync.Mutex // guards the fields below; never held with mu
	ckptBusy bool
	ckptErr  error

	// met holds the WAL and checkpoint counters; it outlives writer
	// re-creation and is linked into the wrapped embedder's Metrics/
	// registry at construction.
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
	cfg = cfg.withDefaults()
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
	w, err := wal.NewWriter(fsys, dir, 1, cfg.walOptions(&dm.wal))
	if err != nil {
		return nil, err
	}
	e.registerDurable(dm)
	if cfg.Trace != nil {
		e.SetTraceHook(cfg.Trace)
	}
	return &DurableEmbedder{fs: fsys, dir: dir, cfg: cfg, e: e, w: w, met: dm}, nil
}

func openDurable(fsys wal.FS, dir string, cfg DurableConfig) (*DurableEmbedder, error) {
	cfg = cfg.withDefaults()
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

	// Newest checkpoint that verifies and decodes wins; corrupt ones are
	// bypassed. The WAL is only ever pruned up to the oldest kept
	// checkpoint, so every batch a fallback needs is still logged. Anything
	// that is not damage — an I/O failure, a checkpoint written at another
	// format version — stops the open instead of being masked.
	var (
		e       *Embedder
		info    RecoveryInfo
		lastErr error
	)
	for i := len(cks) - 1; i >= 0; i-- {
		seq, payload, err := wal.ReadCheckpoint(fsys, dir, cks[i].Name)
		if err == nil {
			e, err = decodeEmbedder(payload, filepath.Join(dir, cks[i].Name))
		}
		if err == nil {
			info.CheckpointSeq = seq
			break
		}
		var corrupt *CorruptStateError
		if !errors.As(err, &corrupt) && !isWALCorrupt(err) {
			return nil, err
		}
		info.SkippedCheckpoints++
		lastErr = asCorruptState(err)
	}
	if e == nil {
		return nil, lastErr
	}

	rec, err := wal.Recover(fsys, dir, cfg.StrictRecovery)
	if err != nil {
		return nil, asCorruptState(err)
	}
	if err := wal.RemoveTempFiles(fsys, dir); err != nil {
		return nil, err
	}
	info.TornTail, info.DroppedBatches, info.DropReason = rec.TornTail, rec.Dropped, rec.DropReason

	next := info.CheckpointSeq + 1
	replay := func() error {
		for _, r := range rec.Records {
			if r.Seq <= info.CheckpointSeq {
				continue // already folded into the checkpoint
			}
			if r.Seq != next {
				return &CorruptStateError{Path: dir, Offset: -1,
					Reason: fmt.Sprintf("log resumes at batch %d after checkpoint %d: missing batches", r.Seq, info.CheckpointSeq)}
			}
			events, err := wal.DecodeEvents(r.Payload)
			if err != nil {
				return &CorruptStateError{Path: dir, Offset: -1,
					Reason: fmt.Sprintf("logged batch %d does not decode", r.Seq), Err: err}
			}
			if _, err := e.applyEventsLocked(context.Background(), events, false); err != nil {
				return &CorruptStateError{Path: dir, Offset: -1,
					Reason: fmt.Sprintf("replay of logged batch %d failed", r.Seq), Err: err}
			}
			next++
			info.ReplayedBatches++
		}
		return nil
	}
	if err := e.finishRestore(dir, replay); err != nil {
		return nil, err
	}

	dm := &durableMetrics{}
	w, err := wal.NewWriter(fsys, dir, next, cfg.walOptions(&dm.wal))
	if err != nil {
		return nil, err
	}
	e.registerDurable(dm)
	// The hook goes live only now, after replay: recovery is reported as
	// one TraceRecovery instead of a batch bracket per replayed record.
	if cfg.Trace != nil {
		e.SetTraceHook(cfg.Trace)
		cfg.Trace(TraceEvent{Kind: TraceRecovery, Seq: info.CheckpointSeq, Block: -1,
			Rebuilt: info.ReplayedBatches})
	}
	return &DurableEmbedder{fs: fsys, dir: dir, cfg: cfg, e: e, w: w, met: dm, recovery: info}, nil
}

// isWALCorrupt reports whether err is the WAL layer's corruption type.
func isWALCorrupt(err error) bool {
	var ce *wal.CorruptError
	return errors.As(err, &ce)
}

// asCorruptState converts the WAL layer's corruption error to the public
// *CorruptStateError; other errors pass through.
func asCorruptState(err error) error {
	var ce *wal.CorruptError
	if errors.As(err, &ce) {
		return &CorruptStateError{Path: ce.Path, Offset: ce.Offset, Reason: ce.Reason, Err: ce.Err}
	}
	return err
}

// Embedder returns the wrapped embedder for reads (Embedding, Snapshot,
// Recommend, ...). Do not call its update methods directly — see the
// DurableEmbedder contract.
func (d *DurableEmbedder) Embedder() *Embedder { return d.e }

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

// ApplyEvents durably applies one batch: the batch is validated, appended
// to the WAL (fsynced per the Sync policy), and only then applied to the
// in-memory embedder, which publishes a new snapshot. Once ApplyEvents
// returns nil the batch will survive a crash (immediately under
// SyncBatch, within the policy's window otherwise).
//
// If the in-memory apply fails after the batch was logged (cancellation,
// a failed self-check), the error is returned and the batch is retried
// in front of the next call, so memory never falls behind the log.
func (d *DurableEmbedder) ApplyEvents(ctx context.Context, events []Event) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, errClosed
	}
	if d.degraded != nil {
		return 0, &DegradedError{Reason: "wal append failed", Err: d.degraded}
	}
	if err := d.retryPendingLocked(ctx); err != nil {
		return 0, err
	}
	if err := d.e.validateEvents(events); err != nil {
		return 0, err // never logged: an invalid batch must not reach replay
	}
	seq, err := d.w.Append(wal.EncodeEvents(events))
	if err != nil {
		d.sealLocked(err)
		return 0, &DegradedError{Reason: "wal append failed", Err: err}
	}
	rebuilt, err := d.e.ApplyEvents(ctx, events)
	if err != nil {
		d.pending = append([]Event(nil), events...)
		return 0, err
	}
	d.sinceCkpt++
	if err := d.maybeCheckpointLocked(seq); err != nil {
		return rebuilt, err
	}
	return rebuilt, nil
}

// sealLocked flips the embedder into read-only degraded mode after a WAL
// append failure. Reads keep serving the published snapshot; every
// further ApplyEvents returns a *DegradedError until Reopen. Caller
// holds d.mu.
func (d *DurableEmbedder) sealLocked(cause error) {
	d.degraded = cause
	d.sealedNext = d.w.NextSeq()
	d.met.degraded.Set(1)
	d.met.seals.Inc()
	if h := d.cfg.Trace; h != nil {
		h(TraceEvent{Kind: TraceDegraded, Seq: d.sealedNext, Block: -1, Err: cause})
	}
}

// Degraded returns the WAL I/O failure that sealed the embedder into
// read-only degraded mode, or nil while ingest is healthy. The serving
// layer's /readyz probes it.
func (d *DurableEmbedder) Degraded() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}

// Reopen re-arms the WAL after the fault behind degraded mode has been
// cleared (disk space freed, volume remounted): it repairs the log tail,
// folds in any record that reached the log but never memory — a failed
// fsync can leave the record bytes fully persisted even though the
// append erred, and the writer poisons itself after the first failure,
// so at most one such record exists — and opens a fresh writer at the
// continuation sequence. On success ingest works again; on failure the
// embedder stays degraded and Reopen can be retried. A no-op when not
// degraded.
func (d *DurableEmbedder) Reopen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	if d.degraded == nil {
		return nil
	}
	// Best effort: the poisoned writer reports the sealing error again;
	// what matters is releasing its file handle.
	d.w.Close()
	// Repair the tail on disk first — NewWriter requires it: a torn
	// record left by the failed append is truncated and a zero-record
	// tail segment removed, so the fresh segment's name cannot collide.
	rec, err := wal.Recover(d.fs, d.dir, false)
	if err != nil {
		return asCorruptState(err)
	}
	next := d.sealedNext
	for _, r := range rec.Records {
		if r.Seq < d.sealedNext {
			continue // applied before the seal
		}
		if r.Seq != next {
			return &CorruptStateError{Path: d.dir, Offset: -1,
				Reason: fmt.Sprintf("reopen: log resumes at batch %d, expected %d", r.Seq, next)}
		}
		events, err := wal.DecodeEvents(r.Payload)
		if err != nil {
			return &CorruptStateError{Path: d.dir, Offset: -1,
				Reason: fmt.Sprintf("reopen: logged batch %d does not decode", r.Seq), Err: err}
		}
		if _, err := d.e.ApplyEvents(context.Background(), events); err != nil {
			return fmt.Errorf("treesvd: reopen: applying logged batch %d: %w", r.Seq, err)
		}
		d.sinceCkpt++
		next++
		// Advance the seal watermark as each record folds in, so a Reopen
		// that fails later (the disk is still full when the fresh writer
		// opens) never replays the same record twice on retry.
		d.sealedNext = next
	}
	w, err := wal.NewWriter(d.fs, d.dir, next, d.cfg.walOptions(&d.met.wal))
	if err != nil {
		return fmt.Errorf("treesvd: reopen: %w", err)
	}
	d.w = w
	d.degraded = nil
	d.sealedNext = 0
	d.met.degraded.Set(0)
	d.met.reopens.Inc()
	if h := d.cfg.Trace; h != nil {
		h(TraceEvent{Kind: TraceDegraded, Seq: next, Block: -1})
	}
	return nil
}

// retryPendingLocked re-applies a logged-but-unapplied batch. Caller
// holds d.mu.
func (d *DurableEmbedder) retryPendingLocked(ctx context.Context) error {
	if d.pending == nil {
		return nil
	}
	if _, err := d.e.ApplyEvents(ctx, d.pending); err != nil {
		return fmt.Errorf("treesvd: retrying logged batch: %w", err)
	}
	d.pending = nil
	d.sinceCkpt++
	return nil
}

// maybeCheckpointLocked takes the periodic checkpoint. Caller holds d.mu.
func (d *DurableEmbedder) maybeCheckpointLocked(seq uint64) error {
	if d.cfg.CheckpointEvery < 0 || d.sinceCkpt < d.cfg.CheckpointEvery {
		return nil
	}
	if d.cfg.SyncCheckpoints {
		return d.checkpointLocked(seq)
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
	d.sinceCkpt = 0
	d.ckptWG.Add(1)
	go func() {
		defer d.ckptWG.Done()
		err := d.commitCheckpoint(seq, payload)
		d.ckptMu.Lock()
		d.ckptErr = err
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
	if err := d.commitCheckpoint(seq, payload); err != nil {
		return err
	}
	d.sinceCkpt = 0
	return nil
}

// commitCheckpoint publishes one checkpoint and prunes: older checkpoints
// beyond KeepCheckpoints first, then WAL segments covered by the oldest
// checkpoint that remains. Safe to run concurrently with Append — it only
// touches checkpoint files and sealed segments. It records the commit in
// the checkpoint metrics and fires TraceCheckpoint (from the background
// checkpoint goroutine unless SyncCheckpoints is set).
func (d *DurableEmbedder) commitCheckpoint(seq uint64, payload []byte) error {
	start := time.Now()
	err := d.writeCheckpointFiles(seq, payload)
	if err == nil {
		d.met.checkpoints.Inc()
		d.met.ckptNanos.ObserveSince(start)
	}
	if h := d.cfg.Trace; h != nil {
		h(TraceEvent{Kind: TraceCheckpoint, Seq: seq, Block: -1, Dur: time.Since(start), Err: err})
	}
	return err
}

// writeCheckpointFiles is the I/O body of commitCheckpoint: commit the
// checkpoint (its rename is the commit point), retire old ones, and prune
// covered WAL segments.
func (d *DurableEmbedder) writeCheckpointFiles(seq uint64, payload []byte) error {
	if err := wal.WriteCheckpoint(d.fs, d.dir, seq, payload); err != nil {
		return err
	}
	if err := wal.PruneCheckpoints(d.fs, d.dir, d.cfg.KeepCheckpoints); err != nil {
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
// prunes the WAL behind it.
func (d *DurableEmbedder) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	if err := d.retryPendingLocked(context.Background()); err != nil {
		return err
	}
	return d.checkpointLocked(d.w.NextSeq() - 1)
}

// Sync forces an fsync of the WAL regardless of the Sync policy, making
// every acknowledged batch durable now.
func (d *DurableEmbedder) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	return d.w.Sync()
}

// Close flushes and closes the WAL and waits for any in-flight background
// checkpoint. It reports the first deferred checkpoint error, if any; the
// store recovers regardless — the WAL still holds everything past the
// last committed checkpoint.
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
	// A degraded store's poisoned writer reports its sealing error again
	// on Close; that failure already reached the caller when it happened.
	if werr := d.w.Close(); err == nil && d.degraded == nil {
		err = werr
	}
	return err
}
