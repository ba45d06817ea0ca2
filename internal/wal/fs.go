// Package wal implements the durability layer of the dynamic embedder: a
// segmented write-ahead log of event batches and atomic, checksummed
// checkpoints. Every byte that reaches disk is covered by a CRC32C, every
// multi-step commit (segment rotation, checkpoint publication) ends with
// a rename plus directory fsync, and recovery (Recover, ReadCheckpoint)
// is written to land on a committed prefix of the logged stream no matter
// where a crash interrupted the writer.
//
// The package talks to the disk only through the FS interface so that the
// fault-injection harness (internal/faultfs) can interpose torn writes,
// bit flips and fsync failures at any operation; OS is the production
// implementation.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// File is the subset of *os.File the WAL needs. Writers created by
// FS.Create are positioned at offset 0 on a truncated file; readers from
// FS.Open read from the start.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
}

// FS abstracts the filesystem operations of the durability layer. All
// paths are absolute or relative to the process working directory; the
// WAL always passes paths inside its managed directory.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating it if it exists.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// ReadDir lists the file names in dir in lexical order.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// SyncDir fsyncs the directory itself, making renames and file
	// creations inside it durable.
	SyncDir(dir string) error
}

// OS is the production FS backed by the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	f, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// tmpSeq numbers this process's WriteFileAtomic calls, so concurrent
// writes to one path never share a temp file.
var tmpSeq atomic.Uint64

// WriteFileAtomic replaces path with the concatenation of parts
// crash-atomically: a temp file beside path (unique per call, ending in
// .tmp for RemoveTempFiles) is written, fsynced and renamed over path,
// then the directory is fsynced. Readers see the old file or the new one.
// A failure before the rename removes the temp file.
func WriteFileAtomic(fs FS, path string, parts ...[]byte) error {
	tmp := fmt.Sprintf("%s.%d-%d%s", path, os.Getpid(), tmpSeq.Add(1), tmpSuffix)
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err == nil {
			_, err = f.Write(p)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		_ = fs.Remove(tmp) // best effort: the write's own error is the one to report
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}
