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
// and are published atomically: written to <name>.tmp, fsynced, renamed
// to checkpoint-<seq %016x>.ckpt, and the directory fsynced. A crash at
// any point leaves either the previous checkpoint set intact or the new
// file fully in place; a bit flip anywhere in the file fails the CRC and
// ReadCheckpoint reports a *CorruptError so the caller can fall back to
// an older checkpoint.
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

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(hexpart, "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// WriteCheckpoint atomically publishes payload as the checkpoint covering
// batches up to and including seq: tmp write, fsync, rename (the commit
// point), directory fsync.
func WriteCheckpoint(fs FS, dir string, seq uint64, payload []byte) error {
	final := filepath.Join(dir, ckptName(seq))
	tmp := final + tmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	hdr := make([]byte, ckptHdrLen)
	copy(hdr[:4], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[8:24])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[24:], crc)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		return err
	}
	return fs.SyncDir(dir)
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
	if n, ok := parseCkptName(name); ok && n != seq {
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
		if seq, ok := parseCkptName(n); ok {
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

// RemoveTempFiles deletes stranded .tmp files (checkpoints whose rename
// never happened). Call after recovery, before writing new state.
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
