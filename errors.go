package treesvd

import (
	"fmt"
	"time"
)

// NodeRangeError reports an event whose node id falls outside the
// embedder's fixed proximity width (the Config.MaxNodes contract).
// ApplyEvents validates the whole batch up front and returns this error
// before mutating anything — the graph, the PPR estimates and the
// published snapshot are exactly as they were, so the caller may drop or
// remap the offending events and retry.
type NodeRangeError struct {
	Index    int   // position of the offending event within the batch
	Node     int32 // the out-of-range (or negative) node id
	MaxNodes int   // the embedder's capacity, fixed at New
}

// Error describes the offending event, its node id, and the capacity it
// exceeded.
func (e *NodeRangeError) Error() string {
	return fmt.Sprintf(
		"treesvd: event %d references node %d outside the embedder's capacity of %d nodes (set Config.MaxNodes at New to cover every id the stream will reach)",
		e.Index, e.Node, e.MaxNodes)
}

// NotInSubsetError reports a Recommend (or embedding-row lookup) source
// that is not one of the embedder's subset rows. Only subset nodes have a
// left factor to score candidates with, so the request cannot be served —
// but nothing is wrong with the embedder either, which is why the error
// is typed: a server can map it to HTTP 404 ("no such resource") instead
// of a generic 500, and a caller can distinguish "wrong source" from a
// real failure with errors.As:
//
//	var nis *treesvd.NotInSubsetError
//	if errors.As(err, &nis) { ... }
type NotInSubsetError struct {
	// Node is the requested source node id.
	Node int32
	// Subset is the size of the embedded subset the node was looked up in.
	Subset int
}

// Error names the missing source and the subset it was looked up in.
func (e *NotInSubsetError) Error() string {
	return fmt.Sprintf(
		"treesvd: node %d is not in the embedded subset of %d sources (only subset nodes have a left factor; pick a source from Subset())",
		e.Node, e.Subset)
}

// InvalidKError reports a Recommend call with a non-positive k. The top-k
// contract is: k <= 0 is rejected with this error (a server maps it to
// HTTP 400), and a k larger than the candidate set silently truncates to
// every available candidate — see Snapshot.Recommend.
type InvalidKError struct {
	// K is the rejected top-k request size.
	K int
}

// Error describes the rejected k and the valid range.
func (e *InvalidKError) Error() string {
	return fmt.Sprintf("treesvd: non-positive top-k request k=%d (k must be >= 1; oversized k truncates to the candidate count)", e.K)
}

// OverloadError reports a request the serving layer's admission control
// refused: every in-flight slot for the endpoint was taken and the wait
// queue was full (or the request's remaining deadline budget could not
// cover the wait). The server maps it to HTTP 503 with a Retry-After
// hint, and the client SDK reconstructs it on the other side, so both
// in-process and remote callers can distinguish "come back later" from a
// real failure:
//
//	var oe *treesvd.OverloadError
//	if errors.As(err, &oe) { time.Sleep(oe.RetryAfter); ... }
type OverloadError struct {
	// Endpoint names the admission gate that shed the request
	// ("recommend", "ingest", ...).
	Endpoint string
	// RetryAfter is the server's backoff hint; zero means "unknown, use
	// your own backoff".
	RetryAfter time.Duration
}

// Error names the shedding endpoint and the retry hint.
func (e *OverloadError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("treesvd: overloaded: endpoint %q shed the request (retry after %v)", e.Endpoint, e.RetryAfter)
	}
	return fmt.Sprintf("treesvd: overloaded: endpoint %q shed the request", e.Endpoint)
}

// DegradedError reports an update rejected because the durable embedder
// sealed itself into read-only degraded mode after a persistent WAL I/O
// failure (a full disk, an fsync error). Reads keep serving the last
// published snapshot; ingest returns this error until the operator
// clears the underlying fault and calls DurableEmbedder.Reopen. The
// server maps it to HTTP 503 (kind "degraded") and the client SDK
// reconstructs it, unlike an OverloadError it is not worth retrying
// without operator action:
//
//	var de *treesvd.DegradedError
//	if errors.As(err, &de) { page the operator }
type DegradedError struct {
	// Reason describes the transition ("wal append failed").
	Reason string
	// Err is the I/O failure that sealed the embedder, when known.
	Err error
}

// Error describes the degraded state and its cause.
func (e *DegradedError) Error() string {
	msg := "treesvd: embedder is in read-only degraded mode"
	if e.Reason != "" {
		msg += " (" + e.Reason + ")"
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap returns the sealing I/O error for errors.Is/As chains.
func (e *DegradedError) Unwrap() error { return e.Err }

// CorruptStateError reports persisted state that failed an integrity
// check: a checksum mismatch, a structurally inconsistent save, a broken
// WAL sequence chain, or a checkpoint that does not verify. Load,
// LoadFile, Open's WAL recovery and its checkpoint verification all
// return it, so callers can separate "the bytes are wrong" from ordinary
// I/O errors with errors.As and decide between restoring a backup and
// retrying:
//
//	var corrupt *treesvd.CorruptStateError
//	if errors.As(err, &corrupt) { ... }
type CorruptStateError struct {
	// Path names the offending file; empty when the source was an
	// in-memory reader.
	Path string
	// Offset is the byte offset of the fault when known, -1 otherwise.
	Offset int64
	// Reason describes what failed to verify.
	Reason string
	// Err is the underlying error, if any.
	Err error
}

// Error describes what failed to verify and where.
func (e *CorruptStateError) Error() string {
	loc := ""
	if e.Path != "" {
		loc = " in " + e.Path
		if e.Offset >= 0 {
			loc = fmt.Sprintf(" in %s@%d", e.Path, e.Offset)
		}
	}
	msg := "treesvd: corrupt state" + loc + ": " + e.Reason
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap returns the underlying error for errors.Is/As chains.
func (e *CorruptStateError) Unwrap() error { return e.Err }
