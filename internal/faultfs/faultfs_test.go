package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/tree-svd/treesvd/internal/wal"
)

// workload runs a fixed op sequence through fs: create two files, write
// and sync them, rename one, remove the other. Returns the first injected
// error (nil when the plan never fired on it).
func workload(dir string, fs *FS) error {
	a, err := fs.Create(filepath.Join(dir, "a"))
	if err != nil {
		return err
	}
	if _, err := a.Write([]byte("aaaaaaaaaa")); err != nil {
		return err
	}
	if err := a.Sync(); err != nil {
		return err
	}
	if _, err := a.Write([]byte("bbbbbbbbbb")); err != nil {
		return err
	}
	if err := a.Close(); err != nil {
		return err
	}
	b, err := fs.Create(filepath.Join(dir, "b"))
	if err != nil {
		return err
	}
	if _, err := b.Write([]byte("cc")); err != nil {
		return err
	}
	if err := b.Sync(); err != nil {
		return err
	}
	if err := b.Close(); err != nil {
		return err
	}
	if err := fs.Rename(filepath.Join(dir, "b"), filepath.Join(dir, "b2")); err != nil {
		return err
	}
	if err := fs.Remove(filepath.Join(dir, "b2")); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

func TestNoPlanPassesThrough(t *testing.T) {
	dir := t.TempDir()
	fs := Wrap(wal.OS, Plan{})
	if err := workload(dir, fs); err != nil {
		t.Fatal(err)
	}
	if fs.Fired() {
		t.Fatal("disabled plan fired")
	}
	data, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil || string(data) != "aaaaaaaaaabbbbbbbbbb" {
		t.Fatalf("file a = %q, %v", data, err)
	}
}

func TestCrashSweepCoversEveryOp(t *testing.T) {
	// Sweep the crash point across the whole workload: every k must fail
	// with ErrInjected until the sweep runs off the end.
	fired := 0
	for k := 1; ; k++ {
		dir := t.TempDir()
		fs := Wrap(wal.OS, Plan{FailAt: k, Mode: Crash})
		err := workload(dir, fs)
		if !fs.Fired() {
			if err != nil {
				t.Fatalf("k=%d: plan never fired yet workload failed: %v", k, err)
			}
			break
		}
		fired++
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("k=%d: workload error %v, want ErrInjected", k, err)
		}
		if !fs.Crashed() {
			t.Fatalf("k=%d: crash did not latch", k)
		}
		// A dead process does no further I/O: everything fails now.
		if _, err := fs.Create(filepath.Join(dir, "late")); !errors.Is(err, ErrInjected) {
			t.Fatalf("k=%d: post-crash Create returned %v", k, err)
		}
		if _, err := fs.Open(filepath.Join(dir, "a")); !errors.Is(err, ErrInjected) {
			t.Fatalf("k=%d: post-crash Open returned %v", k, err)
		}
	}
	if fired < 10 {
		t.Fatalf("sweep visited only %d crash points", fired)
	}
}

func TestCrashTornWrite(t *testing.T) {
	dir := t.TempDir()
	// Op 1: Create(a); op 2: the first Write — crash there, half torn.
	fs := Wrap(wal.OS, Plan{FailAt: 2, Mode: Crash, TornFrac: 0.5})
	err := workload(dir, fs)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("workload error %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "aaaaa" {
		t.Fatalf("torn write left %q, want the 5-byte prefix", data)
	}
}

func TestCrashDropUnsynced(t *testing.T) {
	dir := t.TempDir()
	// Crash on the second Write (op 4: Create, Write, Sync, Write). The
	// first write was fsynced and must survive; the second was not and must
	// vanish entirely.
	fs := Wrap(wal.OS, Plan{FailAt: 4, Mode: Crash, DropUnsynced: true})
	err := workload(dir, fs)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("workload error %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "aaaaaaaaaa" {
		t.Fatalf("file rolled back to %q, want the synced 10 bytes", data)
	}
}

// TestSyncThroughAnyDescriptor: as with fsync(2), a Sync through a
// descriptor from Open makes bytes written through another one durable.
func TestSyncThroughAnyDescriptor(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "a")
	// Ops: Create, Write, Sync (through the reader), then the crash.
	fs := Wrap(wal.OS, Plan{FailAt: 4, Mode: Crash, DropUnsynced: true})
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Write([]byte("aaaaa")); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("bbb")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after the planned crash point: %v, want ErrInjected", err)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "aaaaa" {
		t.Fatalf("file rolled back to %q, want the 5 bytes synced through the reader", data)
	}
}

func TestBitFlipSilent(t *testing.T) {
	dir := t.TempDir()
	fs := Wrap(wal.OS, Plan{FailAt: 1, Mode: BitFlip})
	if err := workload(dir, fs); err != nil {
		t.Fatalf("bit flip must be silent, got %v", err)
	}
	if !fs.Fired() {
		t.Fatal("plan never fired")
	}
	data, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("aaaaaaaaaabbbbbbbbbb")
	diff := 0
	for i := range want {
		if data[i] != want[i] {
			diff++
			if data[i]^want[i] != 1<<3 {
				t.Fatalf("byte %d: %02x vs %02x — not a single-bit flip", i, data[i], want[i])
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
}

func TestSyncError(t *testing.T) {
	dir := t.TempDir()
	// Syncs in the workload: a.Sync (1), b.Sync (2), SyncDir (3).
	fs := Wrap(wal.OS, Plan{FailAt: 2, Mode: SyncError})
	err := workload(dir, fs)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("workload error %v", err)
	}
	if fs.Crashed() {
		t.Fatal("sync error must not latch a crash")
	}
	// The process keeps running: later operations succeed.
	f, err := fs.Create(filepath.Join(dir, "after"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskFullThenClear(t *testing.T) {
	dir := t.TempDir()
	// Writes and syncs count: a.Write (1), a.Sync (2), a.Write (3) — the
	// disk fills on the second write of file a.
	fs := Wrap(wal.OS, Plan{FailAt: 3, Mode: DiskFull})
	err := workload(dir, fs)
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("workload error %v, want ErrDiskFull", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatal("ErrDiskFull must wrap syscall.ENOSPC")
	}
	if !fs.Full() || fs.Crashed() {
		t.Fatalf("state full=%v crashed=%v, want full and not crashed", fs.Full(), fs.Crashed())
	}
	// The synced prefix survives; the failed write reached nothing.
	data, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil || string(data) != "aaaaaaaaaa" {
		t.Fatalf("file a = %q, %v; want the first 10 bytes only", data, err)
	}
	// While full, every mutating op fails but reads keep working.
	if _, err := fs.Create(filepath.Join(dir, "c")); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("Create while full: %v, want ErrDiskFull", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("SyncDir while full: %v, want ErrDiskFull", err)
	}
	if _, err := fs.Open(filepath.Join(dir, "a")); err != nil {
		t.Fatalf("Open while full: %v, want reads to keep working", err)
	}
	if _, err := fs.ReadDir(dir); err != nil {
		t.Fatalf("ReadDir while full: %v", err)
	}
	// Clear models the operator freeing space: everything works again.
	fs.Clear()
	if fs.Full() {
		t.Fatal("Clear did not clear")
	}
	f, err := fs.Create(filepath.Join(dir, "after"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRenameCarriesWatermark(t *testing.T) {
	dir := t.TempDir()
	fs := Wrap(wal.OS, Plan{FailAt: 1000, Mode: Crash, DropUnsynced: true})
	f, err := fs.Create(filepath.Join(dir, "t"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("synced")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-lost")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(filepath.Join(dir, "t"), filepath.Join(dir, "r")); err != nil {
		t.Fatal(err)
	}
	// Force the crash: rollback must track the renamed path.
	fs.plan.FailAt = fs.Ops() + 1
	if _, err := fs.Create(filepath.Join(dir, "boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "r"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "synced" {
		t.Fatalf("renamed file rolled back to %q, want %q", data, "synced")
	}
}
