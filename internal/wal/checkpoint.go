package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
)

// Checkpoint files carry a full embedder save wrapped in a checksummed
// header:
//
//	[4B magic "TSCK"] [4B uint32 LE format version]
//	[8B uint64 LE seq of the last batch folded into the state]
//	[8B uint64 LE payload length]
//	[4B uint32 LE CRC32C over seq bytes ++ length bytes ++ payload]
//	[payload]
//
// and are published atomically by WriteFileAtomic under the name
// checkpoint-<seq %016x>.ckpt. A crash at any point leaves either the
// previous checkpoint set intact or the new file fully in place. A bit
// flip anywhere in the file fails the CRC or a header check, and
// ReadCheckpoint reports a *CorruptError so the caller can fall back to
// an older checkpoint. The magic and version sit outside the CRC, so a
// foreign version cannot be told from a flipped one: it is damage too.
const (
	ckptMagic   = "TSCK"
	ckptVersion = 1
	ckptHdrLen  = 28

	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	tmpSuffix  = ".tmp"
)

// CheckpointInfo names one checkpoint file and the batch seq it covers.
type CheckpointInfo struct {
	Name string
	Seq  uint64
}

func ckptName(seq uint64) string { return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix) }

// WriteCheckpoint atomically publishes payload as the checkpoint covering
// batches up to and including seq (see WriteFileAtomic).
func WriteCheckpoint(fs FS, dir string, seq uint64, payload []byte) error {
	hdr := make([]byte, ckptHdrLen)
	copy(hdr[:4], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[8:24])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[24:], crc)
	return WriteFileAtomic(fs, filepath.Join(dir, ckptName(seq)), hdr, payload)
}

// ReadCheckpoint loads and verifies the named checkpoint, returning the
// seq it covers and the embedder payload. Integrity failures come back as
// a *CorruptError.
func ReadCheckpoint(fs FS, dir, name string) (uint64, []byte, error) {
	path := filepath.Join(dir, name)
	data, err := readAll(fs, path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < ckptHdrLen || string(data[:4]) != ckptMagic {
		return 0, nil, &CorruptError{Path: path, Offset: 0, Reason: "bad checkpoint magic"}
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != ckptVersion {
		return 0, nil, &CorruptError{Path: path, Offset: 4,
			Reason: fmt.Sprintf("checkpoint format version %d, want %d", v, ckptVersion)}
	}
	seq := binary.LittleEndian.Uint64(data[8:16])
	plen := binary.LittleEndian.Uint64(data[16:24])
	if uint64(len(data)-ckptHdrLen) != plen {
		return 0, nil, &CorruptError{Path: path, Offset: 16,
			Reason: fmt.Sprintf("checkpoint payload is %d bytes, header says %d", len(data)-ckptHdrLen, plen)}
	}
	want := binary.LittleEndian.Uint32(data[24:28])
	crc := crc32.Update(0, castagnoli, data[8:24])
	crc = crc32.Update(crc, castagnoli, data[ckptHdrLen:])
	if crc != want {
		return 0, nil, &CorruptError{Path: path, Offset: 24,
			Reason: fmt.Sprintf("checkpoint checksum mismatch: computed %08x, stored %08x", crc, want)}
	}
	if n, ok := parseSeqName(name, ckptPrefix, ckptSuffix); ok && n != seq {
		return 0, nil, &CorruptError{Path: path, Offset: 8,
			Reason: fmt.Sprintf("checkpoint header seq %d disagrees with file name seq %d", seq, n)}
	}
	return seq, data[ckptHdrLen:], nil
}

// ListCheckpoints returns the checkpoints in dir, ascending by seq.
// Temporary and foreign files are ignored.
func ListCheckpoints(fs FS, dir string) ([]CheckpointInfo, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var cks []CheckpointInfo
	for _, n := range names {
		if seq, ok := parseSeqName(n, ckptPrefix, ckptSuffix); ok {
			cks = append(cks, CheckpointInfo{Name: n, Seq: seq})
		}
	}
	// Fixed-width hex names sort lexically, so ReadDir order is seq order.
	return cks, nil
}

// PruneCheckpoints removes the oldest checkpoints until keep remain.
// Removing oldest-first keeps the invariant that the surviving set is a
// suffix, so a crash mid-prune never strands a gap.
func PruneCheckpoints(fs FS, dir string, keep int) error {
	cks, err := ListCheckpoints(fs, dir)
	if err != nil {
		return err
	}
	if keep < 1 {
		keep = 1
	}
	removed := false
	for i := 0; i < len(cks)-keep; i++ {
		if err := fs.Remove(filepath.Join(dir, cks[i].Name)); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return fs.SyncDir(dir)
	}
	return nil
}

// RemoveTempFiles deletes stranded .tmp files (WriteFileAtomic temp
// files whose rename never happened). Call after recovery, before
// writing new state.
func RemoveTempFiles(fs FS, dir string) error {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, n := range names {
		if strings.HasSuffix(n, tmpSuffix) {
			if err := fs.Remove(filepath.Join(dir, n)); err != nil {
				return err
			}
		}
	}
	return nil
}
