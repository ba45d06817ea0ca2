package wal

import "fmt"

// CorruptError reports persisted state that failed an integrity check: a
// checksum mismatch, a structurally inconsistent save, a broken WAL
// sequence chain, or a checkpoint that does not verify. It is distinct
// from plain I/O errors so callers can route "the disk lied" differently
// from "the disk failed". The public facade exports it as
// treesvd.CorruptStateError.
type CorruptError struct {
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
func (e *CorruptError) Error() string {
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
func (e *CorruptError) Unwrap() error { return e.Err }
