package obs

import "time"

// TraceKind identifies which pipeline event a TraceEvent reports.
type TraceKind uint8

// Trace event kinds, in the order a typical update emits them.
const (
	// TraceBatchStart fires at the top of ApplyEvents, before any state
	// is touched. Seq is the snapshot version the batch will publish,
	// Events the batch size.
	TraceBatchStart TraceKind = iota + 1
	// TraceBlockRecompute fires once per level-1 block re-factored by the
	// lazy update, from the worker goroutine that factored it. Block is
	// the block index, Dur the factorization time.
	TraceBlockRecompute
	// TraceBatchEnd fires when ApplyEvents finishes, success or not. Dur
	// is the whole batch, Rebuilt the number of blocks re-factored, Err
	// the batch's error (nil on success).
	TraceBatchEnd
	// TraceRebuild fires when a full Rebuild finishes (the Tree-SVD-S
	// fallback path), with Dur and Err.
	TraceRebuild
	// TraceCheckpoint fires when a durable checkpoint commit finishes —
	// from the background checkpoint goroutine for a periodic checkpoint,
	// inline for an explicit Checkpoint call. Seq is the batch sequence
	// the checkpoint covers.
	TraceCheckpoint
	// TraceRecovery fires once at the end of a successful Open, after
	// replay and audit. Seq is the recovered checkpoint's sequence,
	// Rebuilt the number of WAL batches replayed on top of it.
	TraceRecovery
	// TraceDegraded fires on both edges of the durable layer's read-only
	// degraded mode: sealing (Err is the WAL I/O failure that caused it)
	// and reopening (Err nil). Seq is the WAL sequence the transition
	// happened at.
	TraceDegraded
	// TraceBlockUpdate is retired and never fired; named by
	// benchmark/trace.go, delete with ROADMAP item 1's seam.
	TraceBlockUpdate
)

// String returns the kind's name.
func (k TraceKind) String() string {
	switch k {
	case TraceBatchStart:
		return "batch-start"
	case TraceBlockRecompute:
		return "block-recompute"
	case TraceBatchEnd:
		return "batch-end"
	case TraceRebuild:
		return "rebuild"
	case TraceCheckpoint:
		return "checkpoint"
	case TraceRecovery:
		return "recovery"
	case TraceDegraded:
		return "degraded"
	}
	return "unknown"
}

// TraceEvent is the payload handed to a TraceHook. Only the fields
// documented on the respective TraceKind are meaningful; the rest are
// zero.
type TraceEvent struct {
	Kind    TraceKind
	Seq     uint64        // snapshot version / batch or checkpoint sequence
	Block   int           // block index (TraceBlockRecompute), else -1
	Events  int           // batch size (TraceBatchStart)
	Rebuilt int           // blocks re-factored / batches replayed
	Dur     time.Duration // duration of the completed phase
	Err     error         // terminal error of the phase, nil on success
}

// TraceHook receives pipeline trace events. A nil hook costs one branch
// per fire site; a non-nil hook runs inline on the pipeline's goroutines
// — including worker goroutines (TraceBlockRecompute fires concurrently
// from the factorization pool) and the background checkpoint goroutine —
// so implementations must be fast and safe for concurrent use.
//
// Ordering contract per update: exactly one TraceBatchStart, then zero or
// more TraceBlockRecompute (concurrently), then exactly one
// TraceBatchEnd. TraceCheckpoint and TraceRecovery are emitted by the
// durable layer outside that bracket.
type TraceHook func(TraceEvent)
