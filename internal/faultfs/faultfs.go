// Package faultfs wraps a wal.FS with deterministic fault injection: it
// counts the mutating operations flowing through it and, at a scripted
// operation index, simulates the failure modes a durability layer must
// survive — a process crash with a torn write, loss of data that was
// never fsynced, a silent bit flip, or an fsync error. Sweeping the fault
// index from 1 until a run completes untouched visits every crash point
// of a workload exactly once, which is how the crash-point matrix test
// drives it.
package faultfs

import (
	"errors"
	"fmt"
	"sync"
	"syscall"

	"github.com/tree-svd/treesvd/internal/wal"
)

// ErrInjected is returned by every operation the plan fails. After a
// Crash fires, all further operations — reads included — return it, the
// way a dead process performs no further I/O.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrDiskFull is returned by every mutating operation once a DiskFull
// plan fires, until Clear. It wraps syscall.ENOSPC so code matching the
// real-world errno (errors.Is(err, syscall.ENOSPC)) sees the injected
// fault the same way.
var ErrDiskFull = fmt.Errorf("faultfs: injected disk full: %w", syscall.ENOSPC)

// Mode selects the failure the plan injects.
type Mode int

const (
	// Crash fails the FailAt-th mutating operation and every operation
	// after it. A crashed write persists only TornFrac of its bytes; with
	// DropUnsynced, every file is also rolled back to its last-fsynced
	// length, modeling page-cache loss.
	Crash Mode = iota
	// BitFlip silently flips one bit in the FailAt-th write's payload and
	// carries on — media corruption the software never sees happen.
	BitFlip
	// SyncError makes the FailAt-th Sync/SyncDir fail without making the
	// data durable; the process keeps running.
	SyncError
	// DiskFull models ENOSPC: the disk fills at the FailAt-th write or
	// sync, and from then on every mutating operation fails with
	// ErrDiskFull while reads keep working — the process keeps running.
	// Clear drains the disk again (the operator freed space), after which
	// everything succeeds.
	DiskFull
)

func (m Mode) String() string {
	switch m {
	case Crash:
		return "crash"
	case BitFlip:
		return "bitflip"
	case SyncError:
		return "syncerr"
	case DiskFull:
		return "diskfull"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Plan scripts one fault.
type Plan struct {
	// FailAt is the 1-based index of the operation to fail; 0 disables
	// injection. Crash counts every mutating op (Create, Write, Sync,
	// Rename, Remove, Truncate, SyncDir); BitFlip counts only Writes;
	// SyncError counts only Sync/SyncDir; DiskFull counts Writes and
	// Sync/SyncDir (the ops a real ENOSPC surfaces on).
	FailAt int
	Mode   Mode
	// TornFrac is the fraction of a crashed write's bytes that still
	// reach the file (default 0.5; use a tiny positive value to round to
	// zero bytes).
	TornFrac float64
	// DropUnsynced rolls every tracked file back to its last-fsynced
	// length when the crash fires, modeling unflushed page-cache loss.
	DropUnsynced bool
}

// FS wraps an inner wal.FS with the plan's fault. Safe for concurrent
// use.
type FS struct {
	inner wal.FS
	plan  Plan

	mu      sync.Mutex
	ops     int
	fired   bool
	crashed bool
	full    bool // DiskFull fired and has not been Cleared
	// size and synced track, per path, the current length and the length
	// known durable (advanced by Sync), for DropUnsynced rollback. Only
	// files created through this FS are tracked; anything else is treated
	// as already durable.
	size   map[string]int64
	synced map[string]int64
}

// Wrap returns a fault-injecting view of inner.
func Wrap(inner wal.FS, plan Plan) *FS {
	if plan.TornFrac <= 0 || plan.TornFrac > 1 {
		plan.TornFrac = 0.5
	}
	return &FS{inner: inner, plan: plan, size: map[string]int64{}, synced: map[string]int64{}}
}

// Fired reports whether the planned fault has triggered.
func (f *FS) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// Crashed reports whether the FS is in the post-crash state.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Ops returns how many counted operations have run.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Full reports whether the FS is in the post-DiskFull state.
func (f *FS) Full() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.full
}

// Clear ends a DiskFull fault: the operator freed space, mutating
// operations succeed again. A no-op for every other mode.
func (f *FS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.full = false
}

// op categories for counting.
type opKind int

const (
	opWrite opKind = iota
	opSync
	opOther // Create, Rename, Remove, Truncate
)

// arm counts one mutating operation and decides its fate. It returns the
// action the caller must take; the crash rollback runs here.
func (f *FS) arm(kind opKind) (inject bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, ErrInjected
	}
	if f.full {
		// Every mutating op fails while the disk is full; arm is only
		// called for mutating ops, so no kind check is needed.
		return false, ErrDiskFull
	}
	counted := false
	switch f.plan.Mode {
	case Crash:
		counted = true
	case BitFlip:
		counted = kind == opWrite
	case SyncError:
		counted = kind == opSync
	case DiskFull:
		counted = kind == opWrite || kind == opSync
	}
	if !counted || f.plan.FailAt <= 0 {
		return false, nil
	}
	f.ops++
	if f.ops != f.plan.FailAt || f.fired {
		return false, nil
	}
	f.fired = true
	switch f.plan.Mode {
	case Crash:
		f.crashed = true
		if f.plan.DropUnsynced {
			f.rollbackLocked()
		}
		return true, nil
	case BitFlip, SyncError:
		return true, nil
	case DiskFull:
		f.full = true
		return false, ErrDiskFull
	}
	return false, nil
}

// rollbackLocked truncates every tracked file to its durable watermark.
// Caller holds f.mu.
func (f *FS) rollbackLocked() {
	for name, sz := range f.size {
		if syncedTo := f.synced[name]; syncedTo < sz {
			// Best effort: the crash already happened, errors here have
			// nobody to go to.
			_ = f.inner.Truncate(name, syncedTo)
			f.size[name] = syncedTo
		}
	}
}

// guard fails fast once crashed; used by the read-only operations, which
// are never counted.
func (f *FS) guard() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrInjected
	}
	return nil
}

func (f *FS) MkdirAll(dir string) error {
	if err := f.guard(); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

func (f *FS) Create(name string) (wal.File, error) {
	if inject, err := f.arm(opOther); err != nil {
		return nil, err
	} else if inject {
		return nil, ErrInjected
	}
	fl, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.size[name] = 0
	f.synced[name] = 0
	f.mu.Unlock()
	return &file{fs: f, inner: fl, name: name}, nil
}

func (f *FS) Open(name string) (wal.File, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	fl, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: fl, name: name}, nil
}

func (f *FS) ReadDir(dir string) ([]string, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

func (f *FS) Rename(oldpath, newpath string) error {
	if inject, err := f.arm(opOther); err != nil {
		return err
	} else if inject {
		return ErrInjected
	}
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	if sz, ok := f.size[oldpath]; ok {
		f.size[newpath] = sz
		f.synced[newpath] = f.synced[oldpath]
		delete(f.size, oldpath)
		delete(f.synced, oldpath)
	}
	f.mu.Unlock()
	return nil
}

func (f *FS) Remove(name string) error {
	if inject, err := f.arm(opOther); err != nil {
		return err
	} else if inject {
		return ErrInjected
	}
	if err := f.inner.Remove(name); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.size, name)
	delete(f.synced, name)
	f.mu.Unlock()
	return nil
}

func (f *FS) Truncate(name string, size int64) error {
	if inject, err := f.arm(opOther); err != nil {
		return err
	} else if inject {
		return ErrInjected
	}
	if err := f.inner.Truncate(name, size); err != nil {
		return err
	}
	f.mu.Lock()
	if _, ok := f.size[name]; ok {
		f.size[name] = size
		if f.synced[name] > size {
			f.synced[name] = size
		}
	}
	f.mu.Unlock()
	return nil
}

func (f *FS) SyncDir(dir string) error {
	if inject, err := f.arm(opSync); err != nil {
		return err
	} else if inject {
		// Crash and SyncError both fail the call without syncing.
		return ErrInjected
	}
	return f.inner.SyncDir(dir)
}

// file wraps a wal.File with write/sync accounting.
type file struct {
	fs    *FS
	inner wal.File
	name  string
}

func (fl *file) Read(p []byte) (int, error) {
	if err := fl.fs.guard(); err != nil {
		return 0, err
	}
	return fl.inner.Read(p)
}

func (fl *file) Write(p []byte) (int, error) {
	inject, err := fl.fs.arm(opWrite)
	if err != nil {
		return 0, err
	}
	if inject {
		switch fl.fs.plan.Mode {
		case Crash:
			// Torn write: persist a prefix, then die. Under DropUnsynced
			// the prefix is skipped outright — it could never have been
			// fsynced, and arm already rolled every file back to its
			// durable watermark, so appending past it would punch a hole.
			if torn := int(float64(len(p)) * fl.fs.plan.TornFrac); torn > 0 && !fl.fs.plan.DropUnsynced {
				n, _ := fl.inner.Write(p[:torn])
				fl.track(n)
			}
			return 0, ErrInjected
		case BitFlip:
			if len(p) > 0 {
				flipped := append([]byte(nil), p...)
				flipped[len(flipped)/2] ^= 1 << 3
				n, werr := fl.inner.Write(flipped)
				fl.track(n)
				return n, werr
			}
		}
	}
	n, werr := fl.inner.Write(p)
	fl.track(n)
	return n, werr
}

// track advances the file's size bookkeeping by n written bytes.
func (fl *file) track(n int) {
	if n <= 0 {
		return
	}
	fl.fs.mu.Lock()
	if _, ok := fl.fs.size[fl.name]; ok {
		fl.fs.size[fl.name] += int64(n)
	}
	fl.fs.mu.Unlock()
}

func (fl *file) Sync() error {
	inject, err := fl.fs.arm(opSync)
	if err != nil {
		return err
	}
	if inject {
		// Crash and SyncError both fail the call; neither makes the
		// pending bytes durable.
		return ErrInjected
	}
	if err := fl.inner.Sync(); err != nil {
		return err
	}
	// Like fsync(2), a Sync through any descriptor — one from Open
	// included — makes the whole file durable.
	fl.fs.mu.Lock()
	if sz, ok := fl.fs.size[fl.name]; ok {
		fl.fs.synced[fl.name] = sz
	}
	fl.fs.mu.Unlock()
	return nil
}

func (fl *file) Close() error {
	// Close is not a durability point and is never counted: a crashed FS
	// still lets Close run so tests do not leak descriptors.
	return fl.inner.Close()
}
