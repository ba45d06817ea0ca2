package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
	"time"

	"github.com/tree-svd/treesvd/internal/graph"
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

// Options configures a Writer.
type Options struct {
	// SegmentSize rotates to a new segment file once the current one
	// exceeds this many bytes (default 4 MiB).
	SegmentSize int64
	// Met receives the writer's durability counters. Pass the same
	// instance across writer re-creations to accumulate over the log's
	// lifetime; nil allocates a private one.
	Met *Metrics
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.Met == nil {
		o.Met = &Metrics{}
	}
	return o
}

// segName returns the file name of the segment whose first record is seq.
func segName(seq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }

// parseSegName extracts the first-record seq from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(hexpart, "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the segment first-seqs in dir, ascending.
func listSegments(fs FS, dir string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, n := range names {
		if seq, ok := parseSegName(n); ok {
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
		if _, ok := parseSegName(n); ok {
			return true, nil
		}
		if _, ok := parseCkptName(n); ok {
			return true, nil
		}
	}
	return false, nil
}

// Writer appends checksummed records to a segmented log. It is not safe
// for concurrent use; the durable embedder serializes appends. Any error
// from the filesystem poisons the writer — every later call returns the
// same error — because a partially written record makes the tail position
// untrustworthy. Recovery (a fresh Recover + NewWriter) is the only way
// forward, mirroring a process restart.
type Writer struct {
	fs   FS
	dir  string
	opt  Options
	f    File
	name string
	size int64
	next uint64
	err  error
}

// NewWriter opens a log writer in dir that will assign sequence number
// nextSeq to its first record. It always starts a fresh segment: run
// Recover first so a torn tail left by a crash has been truncated and a
// zero-record tail segment removed — the new segment's name is derived
// from nextSeq and must not collide with a live one.
func NewWriter(fs FS, dir string, nextSeq uint64, opt Options) (*Writer, error) {
	w := &Writer{fs: fs, dir: dir, opt: opt.withDefaults(), next: nextSeq}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
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
	if err := syncTimed(f, w.opt.Met); err != nil {
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

// Append writes one record and fsyncs it. It returns the sequence number
// assigned to the record, which is durable once Append returns nil.
func (w *Writer) Append(payload []byte) (uint64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if len(payload) > maxRecordLen {
		return 0, fmt.Errorf("wal: record payload %d bytes exceeds the %d limit", len(payload), maxRecordLen)
	}
	start := time.Now()
	recLen := int64(recHdrLen + len(payload))
	if w.size > segHdrLen && w.size+recLen > w.opt.SegmentSize {
		if err := w.rotate(); err != nil {
			w.err = err
			return 0, err
		}
	}
	if _, err := w.f.Write(encodeRecord(w.next, payload)); err != nil {
		w.err = err
		return 0, err
	}
	w.size += recLen
	if err := syncTimed(w.f, w.opt.Met); err != nil {
		w.err = err
		return 0, err
	}
	seq := w.next
	w.next++
	w.opt.Met.Appends.Inc()
	w.opt.Met.AppendedBytes.Add(uint64(recLen))
	w.opt.Met.AppendNanos.ObserveSince(start)
	return seq, nil
}

// rotate seals the current segment (fsync + close) and opens the next
// one. The old segment is complete on disk before the new name appears.
func (w *Writer) rotate() error {
	if err := syncTimed(w.f, w.opt.Met); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.opt.Met.Rotations.Inc()
	return w.openSegment()
}

// NextSeq returns the sequence number the next Append will assign.
func (w *Writer) NextSeq() uint64 { return w.next }

// Close fsyncs and closes the current segment. The writer is unusable
// afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	w.err = fmt.Errorf("wal: writer closed")
	if err := syncTimed(w.f, w.opt.Met); err != nil {
		w.f.Close()
		return err
	}
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

// EncodeEvents serializes a batch of edge events as a WAL record payload:
// 9 bytes per event (u, v as int32 LE plus the type byte).
func EncodeEvents(events []graph.Event) []byte {
	buf := make([]byte, 9*len(events))
	for i, ev := range events {
		off := 9 * i
		binary.LittleEndian.PutUint32(buf[off:], uint32(ev.U))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(ev.V))
		buf[off+8] = byte(ev.Type)
	}
	return buf
}

// DecodeEvents parses an EncodeEvents payload.
func DecodeEvents(payload []byte) ([]graph.Event, error) {
	if len(payload)%9 != 0 {
		return nil, fmt.Errorf("wal: event payload length %d is not a multiple of 9", len(payload))
	}
	events := make([]graph.Event, len(payload)/9)
	for i := range events {
		off := 9 * i
		typ := graph.EventType(payload[off+8])
		if typ != graph.Insert && typ != graph.Delete {
			return nil, fmt.Errorf("wal: event %d has unknown type %d", i, typ)
		}
		events[i] = graph.Event{
			U:    int32(binary.LittleEndian.Uint32(payload[off:])),
			V:    int32(binary.LittleEndian.Uint32(payload[off+4:])),
			Type: typ,
		}
	}
	return events, nil
}
