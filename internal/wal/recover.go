package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
)

// Record is one recovered WAL entry. Payload points into the segment's
// bytes as read; it is not a copy.
type Record struct {
	Seq     uint64
	Payload []byte
}

// RecoverResult reports what Recover found and repaired.
type RecoverResult struct {
	// Records are the surviving entries, contiguous and ascending in Seq.
	Records []Record
	// TornTail is set when a physically incomplete record (or segment
	// header) at the very end of the log was truncated — the expected
	// artifact of a crash mid-append, carrying no acknowledged data.
	TornTail bool
	// Dropped counts records discarded because of a fault that cannot be
	// a pure torn tail: a checksum mismatch on a fully present record, a
	// broken sequence chain, or valid data stranded after a fault. These
	// may have been acknowledged batches; DropReason describes the fault.
	// In strict mode such faults become a *CorruptError instead.
	Dropped    int
	DropReason string
}

// faultKind classifies why a record failed to parse.
type faultKind int

const (
	faultNone    faultKind = iota // record parsed cleanly
	faultEOF                      // clean segment end
	faultTorn                     // bytes physically missing at the end
	faultCorrupt                  // bytes present but checksum/length invalid
)

// Recover scans the log in dir from the segment holding seq from on,
// validates every record checksum and the sequence chain, and repairs
// the log so a Writer can resume:
//
//   - a physically torn record at the end of the last segment is
//     truncated away (TornTail) — a crash mid-append, nothing lost,
//   - any other fault — a bit-flipped record, a broken sequence chain, a
//     damaged non-final segment — either returns a *CorruptError (strict)
//     or, by default, truncates the log at the fault: every later record
//     and segment is deleted and counted in Dropped, degrading the log to
//     its longest verifiable prefix rather than refusing to open.
//
// A last segment left with zero records (a crash during its creation, a
// writer closed before its first append, a torn first record) is removed
// so NewWriter can recreate its name without colliding.
//
// A segment followed by one that starts at or before from is never read,
// checked or repaired: Open passes the seq after its checkpoint, so
// damage in log the checkpoint covers costs no later record. From 0
// scans the whole log; the last segment is always scanned.
func Recover(fs FS, dir string, from uint64, strict bool) (*RecoverResult, error) {
	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, err
	}
	for len(segs) > 1 && segs[1] <= from {
		segs = segs[1:]
	}
	res := &RecoverResult{}
	var expect uint64
	for i, first := range segs {
		name := filepath.Join(dir, segName(first))
		last := i == len(segs)-1
		if i == 0 {
			expect = first
		} else if first != expect {
			return res, res.fault(fs, dir, segs[i:], -1, 0, 0, strict, &CorruptError{
				Path: name, Offset: -1,
				Reason: fmt.Sprintf("segment starts at seq %d, want %d: broken sequence chain", first, expect),
			})
		}
		data, err := readAll(fs, name)
		if err != nil {
			return nil, err
		}
		if !validSegHeader(data) {
			if last && countParseable(data[min(len(data), segHdrLen):]) == 0 {
				// A crash during segment creation: no records committed.
				if err := fs.Remove(name); err != nil {
					return nil, err
				}
				res.TornTail = true
				return res, nil
			}
			return res, res.fault(fs, dir, segs[i:], -1, 0, 0, strict, &CorruptError{
				Path: name, Offset: 0, Reason: "bad segment header",
			})
		}
		off, segRecords := int64(segHdrLen), 0
		for {
			rec, n, kind, ferr := parseRecord(data[off:], name, off)
			if kind == faultEOF {
				break
			}
			if kind == faultTorn && last {
				// Pure torn tail: nothing acknowledged lies beyond it.
				if err := truncateAt(fs, name, off, segRecords); err != nil {
					return nil, err
				}
				res.TornTail = true
				return res, nil
			}
			if kind == faultNone && rec.Seq != expect {
				ferr = &CorruptError{Path: name, Offset: off,
					Reason: fmt.Sprintf("record seq %d, want %d: broken sequence chain", rec.Seq, expect)}
			}
			if ferr != nil {
				return res, res.fault(fs, dir, segs[i:], off, n, segRecords, strict, ferr)
			}
			res.Records = append(res.Records, rec)
			segRecords++
			expect++
			off += int64(n)
		}
		if last && segRecords == 0 {
			// A writer closed before its first append: nothing to keep.
			if err := fs.Remove(name); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// fault handles a non-torn fault at offset off of segment segs[0], in a
// record n bytes long (0 when its length prefix is implausible), or in
// segs[0] as a whole (off -1: its header or its place in the chain):
// strict mode propagates ferr; lenient mode deletes everything from the
// fault on (the rest of the faulted segment and all later segments),
// counts the faulted record and the structurally parseable records it
// discarded, and returns nil so recovery lands on the verified prefix.
// Nothing can resync past an implausible length, so such a fault counts
// 1 there.
func (res *RecoverResult) fault(fs FS, dir string, segs []uint64, off int64, n, keep int, strict bool, ferr *CorruptError) error {
	if strict {
		return ferr
	}
	dropped := 0
	for i, first := range segs {
		segPath := filepath.Join(dir, segName(first))
		if i == 0 && off >= 0 {
			if data, err := readAll(fs, segPath); err == nil && off <= int64(len(data)) {
				dropped += 1 + countParseable(data[off+int64(n):])
			}
			if err := truncateAt(fs, segPath, off, keep); err != nil {
				return err
			}
			continue
		}
		if data, err := readAll(fs, segPath); err == nil && len(data) > segHdrLen {
			dropped += countParseable(data[segHdrLen:])
		}
		if err := fs.Remove(segPath); err != nil {
			return err
		}
	}
	if err := fs.SyncDir(dir); err != nil {
		return err
	}
	res.Dropped += dropped
	res.DropReason = ferr.Reason
	return nil
}

// validSegHeader reports whether data opens with a well-formed segment
// header.
func validSegHeader(data []byte) bool {
	return len(data) >= segHdrLen &&
		string(data[:4]) == segMagic &&
		binary.LittleEndian.Uint32(data[4:8]) == segVersion
}

// parseRecord decodes one record at buf[0:]; name and off only label
// errors. Torn faults (bytes missing) and corrupt faults (bytes present
// but invalid) are distinguished so the caller can tell a crash artifact
// from bit rot. A corrupt fault carries a non-nil *CorruptError, and a
// checksum fault the record's length, so the caller can count the
// records past it; a seq check is left to the caller (the record decodes
// fine in isolation).
func parseRecord(buf []byte, name string, off int64) (Record, int, faultKind, *CorruptError) {
	if len(buf) == 0 {
		return Record{}, 0, faultEOF, nil
	}
	if len(buf) < recHdrLen {
		return Record{}, 0, faultTorn, &CorruptError{Path: name, Offset: off, Reason: "torn record header"}
	}
	plen := binary.LittleEndian.Uint32(buf[0:4])
	if plen > maxRecordLen {
		return Record{}, 0, faultCorrupt, &CorruptError{Path: name, Offset: off,
			Reason: fmt.Sprintf("implausible record length %d", plen)}
	}
	total := recHdrLen + int(plen)
	if len(buf) < total {
		return Record{}, 0, faultTorn, &CorruptError{Path: name, Offset: off,
			Reason: fmt.Sprintf("torn record: %d payload bytes of %d", len(buf)-recHdrLen, plen)}
	}
	seq := binary.LittleEndian.Uint64(buf[4:12])
	want := binary.LittleEndian.Uint32(buf[12:16])
	crc := crc32.Update(0, castagnoli, buf[4:12])
	crc = crc32.Update(crc, castagnoli, buf[recHdrLen:total])
	if crc != want {
		return Record{}, total, faultCorrupt, &CorruptError{Path: name, Offset: off,
			Reason: fmt.Sprintf("record checksum mismatch: computed %08x, stored %08x", crc, want)}
	}
	return Record{Seq: seq, Payload: buf[recHdrLen:total:total]}, total, faultNone, nil
}

// countParseable counts structurally valid records in buf — a
// best-effort census of data lost past a fault, for reporting only.
func countParseable(buf []byte) int {
	n, off := 0, 0
	for off < len(buf) {
		_, adv, kind, _ := parseRecord(buf[off:], "", 0)
		if kind != faultNone || adv == 0 {
			break
		}
		n++
		off += adv
	}
	return n
}

// truncateAt cuts the segment at off; a segment left with zero records
// is removed entirely so its name can be reused by the writer.
func truncateAt(fs FS, name string, off int64, records int) error {
	if records == 0 {
		return fs.Remove(name)
	}
	return fs.Truncate(name, off)
}

// readAll slurps a file through the FS abstraction.
func readAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
