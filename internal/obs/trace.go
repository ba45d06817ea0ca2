package obs

import "time"

// TraceKind identifies which pipeline event a TraceEvent reports.
type TraceKind uint8

// Trace event kinds, in the order a typical update emits them.
const (
	// TraceBatchStart fires at the top of ApplyEvents, after validation
	// and before any state is touched. Seq numbers the batch, Events is
	// its size.
	TraceBatchStart TraceKind = iota + 1
	// TraceBlockRecompute fires once per level-1 block re-factored by the
	// lazy update, from the worker goroutine that factored it. Block is
	// the block index, Dur the factorization time.
	TraceBlockRecompute
	// TraceBatchEnd fires when ApplyEvents finishes, success or not. Seq
	// and Events repeat the start's; Dur is the whole batch, Stages its
	// stage table, Rebuilt the number of blocks re-factored, Err the
	// batch's error (nil on success).
	TraceBatchEnd
	// TraceRebuild fires when a full Rebuild finishes (the Tree-SVD-S
	// fallback path), with Dur, Stages and Err.
	TraceRebuild
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
	}
	return "unknown"
}

// TraceEvent is the payload handed to a TraceHook. Only the fields
// documented on the respective TraceKind are meaningful; the rest are
// zero.
type TraceEvent struct {
	Kind TraceKind
	// Seq is the embedder's batch-attempt counter: each ApplyEvents past
	// validation advances it, failed batches and the batches Open replays
	// included, and Rebuild does not. It is not the snapshot version.
	Seq     uint64
	Block   int           // block index (TraceBlockRecompute), else -1
	Events  int           // batch size
	Rebuilt int           // blocks re-factored
	Dur     time.Duration // duration of the completed phase
	// Stages lists every stage the update ran, in table order, with its
	// wall time (see Stages); a stage it did not reach is absent.
	Stages []StageTime
	Err    error // terminal error of the phase, nil on success
}

// TraceHook receives pipeline trace events. A nil hook costs one branch
// per fire site; a non-nil hook runs inline on the pipeline's goroutines
// — including worker goroutines (TraceBlockRecompute fires concurrently
// from the factorization pool) — so implementations must be fast and
// safe for concurrent use.
//
// Ordering contract per update: exactly one TraceBatchStart, then zero or
// more TraceBlockRecompute (concurrently), then exactly one
// TraceBatchEnd. TraceRebuild fires outside that bracket.
type TraceHook func(TraceEvent)
