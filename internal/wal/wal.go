package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// On-disk layout. A log is a directory of segment files
//
//	wal-<first seq, %016x>.log
//
// each starting with an 8-byte header (magic "TSWL" + uint32 LE format
// version) followed by records:
//
//	[4B uint32 LE payload length]
//	[8B uint64 LE batch sequence number]
//	[4B uint32 LE CRC32C over seq bytes ++ payload]
//	[payload]
//
// Sequence numbers are assigned by the writer, start at the value passed
// to NewWriter and increase by exactly 1 per record; recovery rejects any
// discontinuity. The CRC covers the sequence number so a flipped seq is
// caught even when the payload survives intact.
const (
	segMagic   = "TSWL"
	segVersion = 1
	segHdrLen  = 8
	recHdrLen  = 16
	// maxRecordLen bounds a record payload; a length beyond it is treated
	// as corruption (a torn or flipped length prefix), not an allocation.
	maxRecordLen = 1 << 28

	segPrefix = "wal-"
	segSuffix = ".log"
)

// castagnoli is the CRC32C polynomial table (the checksum used by every
// on-disk structure in this package).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segName returns the file name of the segment whose first record is seq.
func segName(seq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }

// parseSeqName extracts the seq from a file name of the form prefix,
// 16 hex digits, suffix — the form of segment and checkpoint names.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	hex, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if hex, ok = strings.CutSuffix(hex, suffix); !ok || len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	return seq, err == nil
}

// listSegments returns the segment first-seqs in dir, ascending.
func listSegments(fs FS, dir string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, n := range names {
		if seq, ok := parseSeqName(n, segPrefix, segSuffix); ok {
			seqs = append(seqs, seq)
		}
	}
	// ReadDir is lexical and the names are fixed-width hex, so seqs is
	// already ascending.
	return seqs, nil
}

// HasState reports whether dir contains any checkpoint or log segment.
func HasState(fs FS, dir string) (bool, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, n := range names {
		if _, ok := parseSeqName(n, segPrefix, segSuffix); ok {
			return true, nil
		}
		if _, ok := parseSeqName(n, ckptPrefix, ckptSuffix); ok {
			return true, nil
		}
	}
	return false, nil
}

// Writer appends checksummed records to a segmented log. A segment ends
// only where a checkpoint was taken (MarkCheckpoint), so PruneSegments
// removes exactly the log a checkpoint covers. It is not safe for
// concurrent use; the durable embedder serializes appends. Each
// record's write and fsync run on a helper goroutine (see Append), one
// record at a time: every method first waits for the record in flight.
// Any error from the filesystem poisons the writer — every later Append
// returns the same error — because a partially written record makes the
// tail position untrustworthy; the failed record is cut back out (see
// fail and Close). Recovery (a fresh Recover + NewWriter) is the only way
// forward, mirroring a process restart.
type Writer struct {
	fs   FS
	dir  string
	met  *Metrics
	f    File
	name string
	size int64
	next uint64
	// segAt is the seq whose record starts a new segment (MarkCheckpoint).
	segAt uint64
	err   error
	// inflight is the last Append's record until a method waits it out.
	inflight *Pending
}

// Pending is one record's write and fsync in flight.
type Pending struct {
	done chan struct{}
	seq  uint64
	err  error
}

// Wait blocks until the record is durable and returns its sequence
// number, or returns the error that poisoned the writer. It may be called
// any number of times, from any goroutine.
func (p *Pending) Wait() (uint64, error) {
	<-p.done
	return p.seq, p.err
}

// NewWriter opens a log writer in dir that will assign sequence number
// nextSeq to its first record. It always starts a fresh segment: run
// Recover first so a torn tail left by a crash has been truncated and a
// zero-record tail segment removed — the new segment's name is derived
// from nextSeq and must not collide with a live one. Before creating it,
// NewWriter fsyncs the newest segment already in dir: a record a crash
// left written but never fsynced, or a truncation by Recover or by a
// poisoned writer's Close, is durable before any record follows it, so a
// power loss cannot take it and leave a broken sequence chain behind.
// met receives the writer's durability counters.
func NewWriter(fs FS, dir string, nextSeq uint64, met *Metrics) (*Writer, error) {
	w := &Writer{fs: fs, dir: dir, met: met, next: nextSeq}
	if err := w.syncNewest(); err != nil {
		return nil, err
	}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// syncNewest fsyncs the newest segment in w.dir, if there is one, through
// a read-only descriptor: fsync(2) flushes the file, whichever descriptor
// it is called on.
func (w *Writer) syncNewest() error {
	segs, err := listSegments(w.fs, w.dir)
	if err != nil || len(segs) == 0 {
		return err
	}
	f, err := w.fs.Open(filepath.Join(w.dir, segName(segs[len(segs)-1])))
	if err != nil {
		return err
	}
	err = syncTimed(f, w.met)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSegment creates the segment file for w.next and makes its existence
// durable (header write + fsync + directory fsync).
func (w *Writer) openSegment() error {
	name := filepath.Join(w.dir, segName(w.next))
	f, err := w.fs.Create(name)
	if err != nil {
		return err
	}
	var hdr [segHdrLen]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := syncTimed(f, w.met); err != nil {
		f.Close()
		return err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.name, w.size = f, name, segHdrLen
	return nil
}

// syncTimed fsyncs f, recording the call and its latency into met.
func syncTimed(f File, met *Metrics) error {
	start := time.Now()
	err := f.Sync()
	met.Fsyncs.Inc()
	met.FsyncNanos.ObserveSince(start)
	return err
}

// encodeRecord frames payload as the record of batch seq.
func encodeRecord(seq uint64, payload []byte) []byte {
	rec := make([]byte, recHdrLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[4:], seq)
	crc := crc32.Update(0, castagnoli, rec[4:12])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(rec[12:], crc)
	copy(rec[recHdrLen:], payload)
	return rec
}

// Append starts writing one record and fsyncing it on a helper goroutine
// and returns at once; the caller computes meanwhile and calls Wait for
// the record's sequence number, which is durable once Wait returns nil.
// The sequence number is assigned, and NextSeq advances, only when the
// fsync succeeds.
func (w *Writer) Append(payload []byte) *Pending {
	w.settle()
	p := &Pending{done: make(chan struct{})}
	w.inflight = p
	go func() {
		p.seq, p.err = w.append(payload)
		close(p.done)
	}()
	return p
}

// settle waits for the record in flight, if any.
func (w *Writer) settle() {
	if w.inflight != nil {
		w.inflight.Wait()
		w.inflight = nil
	}
}

// append is the body of Append, run on its helper goroutine.
func (w *Writer) append(payload []byte) (uint64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if len(payload) > maxRecordLen {
		return 0, fmt.Errorf("wal: record payload %d bytes exceeds the %d limit", len(payload), maxRecordLen)
	}
	start := time.Now()
	recLen := int64(recHdrLen + len(payload))
	if w.next == w.segAt && w.size > segHdrLen {
		if err := w.rotate(); err != nil {
			w.err = err
			return 0, err
		}
	}
	if _, err := w.f.Write(encodeRecord(w.next, payload)); err != nil {
		return 0, w.fail(err)
	}
	if err := syncTimed(w.f, w.met); err != nil {
		return 0, w.fail(err)
	}
	w.size += recLen
	seq := w.next
	w.next++
	w.met.Appends.Inc()
	w.met.AppendedBytes.Add(uint64(recLen))
	w.met.AppendNanos.ObserveSince(start)
	return seq, nil
}

// fail poisons the writer with err, the failure of the record at w.size,
// after cutting the segment back to that record's start: a record whose
// write or fsync failed must not be replayed by a later Open, since a
// retried fsync after a failed one proves nothing. The cut is best
// effort and err is returned whatever it does; Close retries it.
func (w *Writer) fail(err error) error {
	_ = w.fs.Truncate(w.name, w.size)
	w.err = err
	return err
}

// rotate closes the current segment and opens the next one. The old
// segment needs no fsync of its own: its header was fsynced when it was
// opened and every record by its append (a failed one poisons the
// writer), so it is complete on disk before the new name appears.
func (w *Writer) rotate() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	w.met.Rotations.Inc()
	return w.openSegment()
}

// MarkCheckpoint records that a checkpoint holds the state after batch
// seq, the last record appended: the record of seq+1 starts a new
// segment, rotated on that record's helper goroutine. A current segment
// that holds no record already starts at seq+1 and is kept. It first
// waits for the record in flight.
func (w *Writer) MarkCheckpoint(seq uint64) {
	w.settle()
	w.segAt = seq + 1
}

// NextSeq returns the sequence number the next Append will assign,
// after waiting for the record in flight.
func (w *Writer) NextSeq() uint64 {
	w.settle()
	return w.next
}

// Close waits for the record in flight and closes the current segment,
// with no fsync: openSegment fsynced its header and append each record.
// On a poisoned writer it retries fail's cut, which a full disk may have
// failed, and returns the cut's error or nil; the next NewWriter makes
// the cut durable. The writer is unusable afterwards.
func (w *Writer) Close() error {
	w.settle()
	if w.err != nil {
		w.f.Close()
		return w.fs.Truncate(w.name, w.size)
	}
	w.err = fmt.Errorf("wal: writer closed")
	return w.f.Close()
}

// PruneSegments removes every segment whose records all have seq ≤ upTo.
// The caller must only pass an upTo covered by a committed checkpoint:
// pruned records are gone for good. The newest segment is never removed
// (the writer may hold it open).
func PruneSegments(fs FS, dir string, upTo uint64) error {
	seqs, err := listSegments(fs, dir)
	if err != nil {
		return err
	}
	removed := false
	for i := 0; i+1 < len(seqs); i++ {
		// Segment i spans [seqs[i], seqs[i+1]-1].
		if seqs[i+1] <= upTo+1 {
			if err := fs.Remove(filepath.Join(dir, segName(seqs[i]))); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return fs.SyncDir(dir)
	}
	return nil
}
