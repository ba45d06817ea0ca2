package treesvd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/obs"
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

var (
	// errClosed reports an update or checkpoint after Close.
	errClosed = errors.New("treesvd: durable store is closed")
	// errNoLog is Checkpoint's answer on an embedder New or Load made.
	errNoLog = errors.New("treesvd: no log: only a store made by Create or Open checkpoints")
	// errRebuildLogged is Rebuild's answer on a durable store: the log
	// holds edge events only, so replay could not repeat a rebuild and
	// Open would come back to a state other than the one served.
	errRebuildLogged = errors.New("treesvd: Rebuild on a durable store: the log holds edge events only, so a rebuild would be lost at the next Open")
)

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

// durableLog is what a durable store adds to its Embedder (the log
// field, set by Create and Open before they return and never changed):
// the directory, the WAL writer, the checkpoint state and the durability
// metrics. Every field but the background checkpoint's is guarded by
// e.mu, so a logged batch takes one lock through its apply, its fsync
// and its checkpoint capture.
type durableLog struct {
	fs  wal.FS
	dir string
	cfg DurableConfig
	w   *wal.Writer

	closed    bool
	sinceCkpt int
	// degraded is the WAL I/O failure that sealed the store read-only
	// (nil while healthy).
	degraded error

	// ckptBusy is set while a background checkpoint, which ckptWG
	// tracks, is in flight. ckptErr is the first background checkpoint
	// failure: only that goroutine writes it, one at a time (ckptBusy),
	// and Close reads it after ckptWG.Wait.
	ckptWG   sync.WaitGroup
	ckptBusy atomic.Bool
	ckptErr  error

	met      durableMetrics
	recovery RecoveryInfo
}

// DurableEmbedder is retired: Create and Open return an *Embedder with a
// log attached. Named by benchmark/run.go, delete with ROADMAP item 1's
// seam.
type DurableEmbedder = Embedder

// Create initializes a durable store in dir and returns its embedder:
// it builds the initial state with New(g, subset, cfg.Config), commits it
// as the first checkpoint, and opens the write-ahead log. It fails if dir
// already holds durable state.
//
// Every ApplyEvents batch of the returned embedder is appended to the WAL
// — checksummed and fsynced — while it is applied in memory, and its
// snapshot is published, and the call returns, only once that record is
// durable: no reader and no caller ever sees a batch the log could still
// lose. A checkpoint (a full atomic save) is committed every
// CheckpointEvery batches, after which older WAL segments are pruned.
// Open recovers the directory to a committed prefix of the acknowledged
// stream no matter where a previous process stopped. Rebuild is refused:
// the log holds edge events only.
//
// A WAL append failure (full disk, fsync error) seals the store into
// read-only degraded mode until Close: ingest and Checkpoint return a
// *DegradedError, reads keep serving the last published snapshot, and
// Degraded reports the cause. The failed batch was applied in memory
// while its record was being written but is never published. The one way
// back is a restart: once the fault is cleared, Close (which cuts the
// failed record out of the log) and Open land on the acknowledged prefix,
// and the caller resends the batch that failed.
func Create(dir string, g *Graph, subset []int32, cfg DurableConfig) (*Embedder, error) {
	return createDurable(wal.OS, dir, g, subset, cfg)
}

// Open recovers the durable store in dir (see Create): it restores the
// newest checkpoint that verifies (falling back past corrupt ones),
// repairs the WAL tail, replays every logged batch past the checkpoint,
// audits the result with the internal invariant checkers, and only then
// publishes the first readable snapshot, under the version the store
// served before it stopped (one more than the last batch's seq). It
// returns ErrNoState when dir was never initialized with Create, and a
// *CorruptStateError when the store cannot be brought to a verified
// state.
func Open(dir string, cfg DurableConfig) (*Embedder, error) {
	return openDurable(wal.OS, dir, cfg)
}

// CreateWithFS is Create on an explicit filesystem. It exists for the
// internal fault-injection harness — the FS type lives in an internal
// package, so code outside this module cannot supply one; use Create.
func CreateWithFS(fsys wal.FS, dir string, g *Graph, subset []int32, cfg DurableConfig) (*Embedder, error) {
	return createDurable(fsys, dir, g, subset, cfg)
}

// OpenWithFS is Open on an explicit filesystem; see CreateWithFS.
func OpenWithFS(fsys wal.FS, dir string, cfg DurableConfig) (*Embedder, error) {
	return openDurable(fsys, dir, cfg)
}

func createDurable(fsys wal.FS, dir string, g *Graph, subset []int32, cfg DurableConfig) (*Embedder, error) {
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
	if err := e.attachLog(&durableLog{fs: fsys, dir: dir, cfg: cfg}, 1); err != nil {
		return nil, err
	}
	return e, nil
}

func openDurable(fsys wal.FS, dir string, cfg DurableConfig) (*Embedder, error) {
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
		// The first publish serves version next, as before the restart:
		// New publishes version 1, and each acknowledged batch one more.
		e.version.Store(next - 1)
		return err
	}); err != nil {
		return nil, err
	}
	if err := e.attachLog(&durableLog{fs: fsys, dir: dir, cfg: cfg, recovery: info}, next); err != nil {
		return nil, err
	}
	return e, nil
}

// attachLog opens the WAL at batch seq next and makes l e's log, with its
// metrics in Metrics().WAL and the registry. Create and Open call it last,
// before any other goroutine can reach e.
func (e *Embedder) attachLog(l *durableLog, next uint64) error {
	w, err := wal.NewWriter(l.fs, l.dir, next, &l.met.wal)
	if err != nil {
		return err
	}
	l.w = w
	e.log = l
	e.registerDurable(&l.met)
	return nil
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

// Embedder is retired with DurableEmbedder and returns its receiver.
// Named by benchmark/run.go, delete with ROADMAP item 1's seam.
func (e *Embedder) Embedder() *Embedder { return e }

// Recovery reports what Open found and repaired: the zero value after
// Create, New or Load.
func (e *Embedder) Recovery() RecoveryInfo {
	if e.log == nil {
		return RecoveryInfo{}
	}
	return e.log.recovery
}

// applyLoggedLocked is ApplyEvents on a durable store (see Create); the
// fsync runs on a helper goroutine while the batch is applied. Caller
// holds e.mu. Once the record is on its way to disk the apply is owed and
// ignores cancellation. (An apply error after a good fsync is an internal
// fault: the batch stays logged and in the graph, and the next update
// catches the rest of the pipeline up.)
func (e *Embedder) applyLoggedLocked(ctx context.Context, events []Event) (int, error) {
	l := e.log
	if l.closed {
		return 0, errClosed
	}
	if err := l.degradedErr(); err != nil {
		return 0, err
	}
	if err := e.validateEvents(events); err != nil {
		return 0, err // never logged: an invalid batch must not reach replay
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	rec := l.w.Append(graph.AppendEvents(nil, events))
	rebuilt, err := e.applyEventsLocked(context.WithoutCancel(ctx), events, func() error {
		_, err := rec.Wait()
		return err
	})
	// An apply that failed before its barrier did not wait: wait here.
	seq, werr := rec.Wait()
	if werr != nil {
		l.seal(werr)
		return 0, l.degradedErr()
	}
	if err != nil {
		return 0, err
	}
	l.sinceCkpt++
	return rebuilt, e.maybeCheckpointLocked(ctx, seq)
}

// degradedErr returns the *DegradedError every update and checkpoint
// gets while the store is sealed, else nil. Caller holds e.mu.
func (l *durableLog) degradedErr() error {
	if l.degraded == nil {
		return nil
	}
	return &DegradedError{Reason: "wal append failed", Err: l.degraded}
}

// seal flips the store into read-only degraded mode after a WAL append
// failure. Reads keep serving the published snapshot; every further
// ApplyEvents returns a *DegradedError until Close. Caller holds e.mu.
func (l *durableLog) seal(cause error) {
	l.degraded = cause
	l.met.degraded.Set(1)
	l.met.seals.Inc()
}

// Degraded returns the WAL I/O failure that sealed a durable store into
// read-only degraded mode, or nil while ingest is healthy and always on
// an embedder without a log. The serving layer's /readyz probes it.
func (e *Embedder) Degraded() error {
	if e.log == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.degraded
}

// maybeCheckpointLocked takes the periodic checkpoint. Caller holds e.mu
// and has just acknowledged batch seq, so memory equals the log (the
// store is not degraded).
func (e *Embedder) maybeCheckpointLocked(ctx context.Context, seq uint64) error {
	l := e.log
	if l.cfg.CheckpointEvery < 0 || l.sinceCkpt < l.cfg.CheckpointEvery {
		return nil
	}
	if !l.ckptBusy.CompareAndSwap(false, true) {
		return nil // one in flight; the next batch re-triggers
	}
	// Capture the state synchronously, so the checkpoint is exactly the
	// state after batch seq; only the file I/O runs in the background. The
	// capture is the part of a checkpoint the calling batch waits for.
	payload, err := e.captureLocked(ctx)
	if err != nil {
		l.ckptBusy.Store(false)
		return err
	}
	l.w.MarkCheckpoint(seq)
	l.sinceCkpt = 0
	l.ckptWG.Add(1)
	go func() {
		defer l.ckptWG.Done()
		if err := l.commitCheckpoint(seq, payload); err != nil && l.ckptErr == nil {
			l.ckptErr = err
		}
		l.ckptBusy.Store(false)
	}()
	return nil
}

// captureLocked is a checkpoint's synchronous save of the state, timed
// as the checkpoint.capture row of treesvd_stage_nanos. Caller holds e.mu.
func (e *Embedder) captureLocked(ctx context.Context) (payload []byte, err error) {
	dur := obs.StageCheckpointCapture.Do(ctx, func() { payload, err = e.saveBytesLocked() })
	e.met.stages[obs.StageCheckpointCapture].Observe(int64(dur))
	return payload, err
}

// commitCheckpoint publishes one checkpoint and prunes: older checkpoints
// beyond keepCheckpoints first, then WAL segments covered by the oldest
// checkpoint that remains. Safe to run concurrently with Append — it only
// touches checkpoint files and sealed segments. It records the commit, or
// its failure, in the checkpoint metrics.
func (l *durableLog) commitCheckpoint(seq uint64, payload []byte) error {
	start := time.Now()
	if err := l.writeCheckpointFiles(seq, payload); err != nil {
		l.met.ckptFailures.Inc()
		return err
	}
	l.met.checkpoints.Inc()
	l.met.ckptNanos.ObserveSince(start)
	return nil
}

// writeCheckpointFiles is the I/O body of commitCheckpoint: commit the
// checkpoint (its rename is the commit point), retire old ones, and prune
// covered WAL segments.
func (l *durableLog) writeCheckpointFiles(seq uint64, payload []byte) error {
	if err := wal.WriteCheckpoint(l.fs, l.dir, seq, payload); err != nil {
		return err
	}
	if err := wal.PruneCheckpoints(l.fs, l.dir, keepCheckpoints); err != nil {
		return err
	}
	cks, err := wal.ListCheckpoints(l.fs, l.dir)
	if err != nil {
		return err
	}
	if len(cks) == 0 {
		return nil // unreachable: the checkpoint just committed is listed
	}
	return wal.PruneSegments(l.fs, l.dir, cks[0].Seq)
}

// Checkpoint synchronously commits a checkpoint of a durable store's
// current state and prunes the WAL behind it; on an embedder without a
// log it returns an error. While degraded it returns a *DegradedError and
// writes nothing: memory holds the batch whose append failed, and a
// checkpoint of it would be labelled with the log's last seq.
func (e *Embedder) Checkpoint() error {
	l := e.log
	if l == nil {
		return errNoLog
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if err := l.degradedErr(); err != nil {
		return err
	}
	l.ckptWG.Wait() // never two checkpoint writers at once
	seq := l.w.NextSeq() - 1
	payload, err := e.captureLocked(context.Background())
	if err != nil {
		return err
	}
	l.w.MarkCheckpoint(seq)
	if err := l.commitCheckpoint(seq, payload); err != nil {
		return err
	}
	l.sinceCkpt = 0
	return nil
}

// Close closes a durable store's WAL and waits for any in-flight
// background checkpoint; on an embedder without a log it does nothing.
// It reports the first deferred checkpoint error, if any; the store
// recovers regardless — the WAL still holds everything past the last
// committed checkpoint. On a degraded store it also cuts the record of
// the batch whose append failed out of the log, and reports that cut's
// failure too (the disk is still full, say): the batch may then come back
// at Open, like a batch in flight at a crash. Reads keep serving the last
// snapshot after Close; updates return an error.
func (e *Embedder) Close() error {
	l := e.log
	if l == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.ckptWG.Wait()
	return errors.Join(l.ckptErr, l.w.Close())
}
