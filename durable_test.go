package treesvd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/faultfs"
	"github.com/tree-svd/treesvd/internal/wal"
)

// durableFixture is the deterministic workload shared by the durable
// tests: an initial graph, a churn stream, the durable configuration, and
// the ground truth — the embedding after every batch prefix, computed on
// a never-persisted embedder.
type durableFixture struct {
	initial *Graph
	subset  []int32
	batches [][]Event
	cfg     DurableConfig
	shadow  [][][]float64 // shadow[i] = embedding after batches[:i]
}

func newDurableFixture(t testing.TB) *durableFixture {
	t.Helper()
	subset := []int32{0, 3, 5, 9}
	initial, batches := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: 20, MaxNodes: 24, Degree: 3,
		Batches: 6, BatchSize: 10,
		SelfLoopFrac: 0.1, DeleteFrac: 0.2, DupFrac: 0.1, MissFrac: 0.1, GrowFrac: 0.1,
		BigBatch: -1,
		Protect:  subset,
		Seed:     11,
	})
	fx := &durableFixture{
		initial: initial,
		subset:  subset,
		batches: batches,
		cfg: DurableConfig{
			Config:          Config{Dim: 4, Branch: 4, Levels: 2, MaxNodes: 24, Seed: 5},
			CheckpointEvery: 2,
			SyncCheckpoints: true,
			SegmentSize:     256, // a few records per segment: rotation is on every crash path
		},
	}
	emb, err := New(initial.Clone(), subset, fx.cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	fx.shadow = append(fx.shadow, copyMat(emb.Embedding()))
	for i, b := range batches {
		if _, err := emb.ApplyEvents(bgt, b); err != nil {
			t.Fatalf("shadow batch %d: %v", i, err)
		}
		fx.shadow = append(fx.shadow, copyMat(emb.Embedding()))
	}
	return fx
}

func copyMat(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, r := range m {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// requireMatClose asserts entrywise agreement at the persistence
// tolerance (1e-9 relative — the save/load float-reassociation budget
// documented in persist_test.go).
func requireMatClose(t testing.TB, got, want [][]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if d := math.Abs(got[i][j] - want[i][j]); d > 1e-9*(1+math.Abs(want[i][j])) {
				t.Fatalf("%s: entry (%d,%d) = %g, want %g", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// runWorkload drives the whole fixture stream through a durable embedder
// on fsys, stopping at the first error the way a dying process would.
func (fx *durableFixture) runWorkload(fsys wal.FS, dir string) (acked int, createFailed bool, err error) {
	d, err := CreateWithFS(fsys, dir, fx.initial.Clone(), fx.subset, fx.cfg)
	if err != nil {
		return 0, true, err
	}
	for _, b := range fx.batches {
		if _, err := d.ApplyEvents(nil, b); err != nil {
			return acked, false, err
		}
		acked++
	}
	return acked, false, d.Close()
}

func TestDurableCreateOpenRoundTrip(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	acked, createFailed, err := fx.runWorkload(wal.OS, dir)
	if err != nil || createFailed || acked != len(fx.batches) {
		t.Fatalf("workload: acked %d, createFailed %v, err %v", acked, createFailed, err)
	}
	d, err := Open(dir, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	info := d.Recovery()
	if got := int(info.CheckpointSeq) + info.ReplayedBatches; got != len(fx.batches) {
		t.Fatalf("recovered prefix %d (checkpoint %d + replayed %d), want %d",
			got, info.CheckpointSeq, info.ReplayedBatches, len(fx.batches))
	}
	requireMatClose(t, d.Embedder().Embedding(), fx.shadow[len(fx.batches)], "reopened embedding")
	names, err := wal.OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		ck, _ := filepath.Match("checkpoint-????????????????.ckpt", n)
		seg, _ := filepath.Match("wal-*.log", n)
		if !ck && !seg {
			t.Errorf("store holds %q: neither a checkpoint nor a WAL segment", n)
		}
	}
}

func TestOpenWithoutStateFails(t *testing.T) {
	_, err := Open(t.TempDir(), DurableConfig{})
	if !errors.Is(err, ErrNoState) {
		t.Fatalf("Open on empty dir: %v, want ErrNoState", err)
	}
	// A directory that does not exist at all is the same condition for a
	// consumer probing "is there a store yet?".
	_, err = Open(filepath.Join(t.TempDir(), "never-created"), DurableConfig{})
	if !errors.Is(err, ErrNoState) {
		t.Fatalf("Open on missing dir: %v, want ErrNoState", err)
	}
}

func TestCreateRefusesExistingState(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	d, err := Create(dir, fx.initial.Clone(), fx.subset, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, fx.initial.Clone(), fx.subset, fx.cfg); err == nil {
		t.Fatal("Create over an existing store succeeded")
	}
}

func TestDurableReplayWithoutCheckpoints(t *testing.T) {
	fx := newDurableFixture(t)
	cfg := fx.cfg
	cfg.CheckpointEvery = -1 // WAL replay must carry the whole stream
	dir := t.TempDir()
	d, err := Create(dir, fx.initial.Clone(), fx.subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range fx.batches {
		if _, err := d.ApplyEvents(nil, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	info := d.Recovery()
	if info.CheckpointSeq != 0 || info.ReplayedBatches != len(fx.batches) {
		t.Fatalf("recovery = %+v, want all %d batches replayed from checkpoint 0", info, len(fx.batches))
	}
	requireMatClose(t, d.Embedder().Embedding(), fx.shadow[len(fx.batches)], "replayed embedding")
}

// TestOpenStrictRecovery flips one payload byte of the first record in
// the first of several WAL segments — damage a crash cannot leave. With
// StrictRecovery, Open must refuse with a *CorruptStateError and leave
// every file as it was; without it, Open must truncate the log at the
// fault, report the dropped batches and restore the checkpoint alone.
func TestOpenStrictRecovery(t *testing.T) {
	fx := newDurableFixture(t)
	cfg := fx.cfg
	cfg.CheckpointEvery = -1 // keep every segment: replay starts at checkpoint 0
	dir := t.TempDir()
	d, err := Create(dir, fx.initial.Clone(), fx.subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range fx.batches {
		if _, err := d.ApplyEvents(nil, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
		return out
	}
	var segs []string
	for name := range files() {
		if strings.HasSuffix(name, ".log") {
			segs = append(segs, name)
		}
	}
	if len(segs) < 2 {
		t.Fatalf("workload wrote %d WAL segments, want ≥ 2", len(segs))
	}
	slices.Sort(segs)
	first := filepath.Join(dir, segs[0])
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[8+16] ^= 0x40 // segment header, record header, then the payload
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	before := files()
	strict := cfg
	strict.StrictRecovery = true
	if d, err := Open(dir, strict); err == nil {
		d.Close()
		t.Fatal("strict Open accepted a corrupt WAL record")
	} else if ce := (*CorruptStateError)(nil); !errors.As(err, &ce) {
		t.Fatalf("strict Open: %v (%T), want a *CorruptStateError", err, err)
	}
	after := files()
	if len(after) != len(before) {
		t.Fatalf("strict Open changed the store: %d files before, %d after", len(before), len(after))
	}
	for name, b := range before {
		if after[name] != b {
			t.Fatalf("strict Open changed %s", name)
		}
	}

	d, err = Open(dir, cfg)
	if err != nil {
		t.Fatalf("lenient Open: %v", err)
	}
	defer d.Close()
	info := d.Recovery()
	if info.DroppedBatches == 0 || info.DropReason == "" || info.ReplayedBatches != 0 {
		t.Fatalf("recovery = %+v, want dropped batches with a reason and none replayed", info)
	}
	requireMatClose(t, d.Embedder().Embedding(), fx.shadow[0], "checkpoint-only embedding")
}

func TestDurableCheckpointPrunesWAL(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	if _, _, err := fx.runWorkload(wal.OS, dir); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts, segs []string
	for _, n := range names {
		if strings.HasSuffix(n.Name(), ".ckpt") {
			ckpts = append(ckpts, n.Name())
		}
		if strings.HasSuffix(n.Name(), ".log") {
			segs = append(segs, n.Name())
		}
	}
	if len(ckpts) != keepCheckpoints {
		t.Fatalf("store holds %d checkpoints %v, want %d", len(ckpts), ckpts, keepCheckpoints)
	}
	// 6 batches ≈ 106 bytes each against 256-byte segments is ≥3 segments;
	// pruning up to the oldest kept checkpoint (seq 4) must have removed
	// the earliest of them.
	if len(segs) >= 4 {
		t.Fatalf("store still holds %d WAL segments %v — pruning never ran", len(segs), segs)
	}
}

// TestOpenFallsBackPastCorruptCheckpoint flips a byte inside the newest
// checkpoint's payload: Open must bypass it, restore the previous one and
// replay the WAL to the full stream. The one leg left of the former
// 1-and-3-shard pair sets the retired Shards 1, which still means one tree.
func TestOpenFallsBackPastCorruptCheckpoint(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		fx := newDurableFixture(t)
		fx.cfg.Config.Shards = 1
		dir := t.TempDir()
		if _, _, err := fx.runWorkload(wal.OS, dir); err != nil {
			t.Fatal(err)
		}
		cks, err := wal.ListCheckpoints(wal.OS, dir)
		if err != nil || len(cks) < 2 {
			t.Fatalf("checkpoints: %v, %v (need ≥2 for a fallback)", cks, err)
		}
		path := filepath.Join(dir, cks[len(cks)-1].Name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir, fx.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		info := d.Recovery()
		if info.SkippedCheckpoints != 1 {
			t.Fatalf("recovery skipped %d checkpoints, want 1", info.SkippedCheckpoints)
		}
		// The fallback checkpoint plus WAL replay must land on the full
		// stream: segments are only pruned up to the oldest kept checkpoint.
		if got := int(info.CheckpointSeq) + info.ReplayedBatches; got != len(fx.batches) {
			t.Fatalf("fallback recovered prefix %d, want %d", got, len(fx.batches))
		}
		requireMatClose(t, d.Embedder().Embedding(), fx.shadow[len(fx.batches)], "fallback embedding")
	})
}

func TestOpenRejectsFullyCorruptStore(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	if _, _, err := fx.runWorkload(wal.OS, dir); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if !strings.HasSuffix(n.Name(), ".ckpt") {
			continue
		}
		path := filepath.Join(dir, n.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Open(dir, fx.cfg)
	var corrupt *CorruptStateError
	if !errors.As(err, &corrupt) {
		t.Fatalf("Open with every checkpoint corrupt: %v, want *CorruptStateError", err)
	}
}

func TestDurableRetriesLoggedBatchAfterFailure(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	d, err := Create(dir, fx.initial.Clone(), fx.subset, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A cancelled context fails the in-memory apply after the batch is
	// durably logged; the wrapper must re-apply it before the next batch
	// so memory never falls behind the log.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.ApplyEvents(cancelled, fx.batches[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled apply returned %v", err)
	}
	if _, err := d.ApplyEvents(bgt, fx.batches[1]); err != nil {
		t.Fatal(err)
	}
	requireMatClose(t, d.Embedder().Embedding(), fx.shadow[2], "embedding after retry")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// And the log must agree: both batches recovered.
	d, err = Open(dir, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	info := d.Recovery()
	if got := int(info.CheckpointSeq) + info.ReplayedBatches; got != 2 {
		t.Fatalf("recovered prefix %d, want 2", got)
	}
	requireMatClose(t, d.Embedder().Embedding(), fx.shadow[2], "reopened embedding after retry")
}

func TestDurableRejectsInvalidBatchBeforeLogging(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	d, err := Create(dir, fx.initial.Clone(), fx.subset, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	poison := []Event{{U: 0, V: int32(fx.cfg.Config.MaxNodes), Type: Insert}}
	var nre *NodeRangeError
	if _, err := d.ApplyEvents(nil, poison); !errors.As(err, &nre) {
		t.Fatalf("poisoned batch returned %v, want *NodeRangeError", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Nothing may have reached the log: reopen replays zero batches.
	d, err = Open(dir, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if info := d.Recovery(); info.CheckpointSeq != 0 || info.ReplayedBatches != 0 {
		t.Fatalf("rejected batch leaked into the log: %+v", info)
	}
}

// TestCloseReportsFirstCheckpointError: a background checkpoint whose
// fsync fails is reported by Close even after a later one succeeds.
func TestCloseReportsFirstCheckpointError(t *testing.T) {
	fx := newDurableFixture(t)
	cfg := fx.cfg
	cfg.SyncCheckpoints, cfg.CheckpointEvery, cfg.SegmentSize = false, 1, 0
	// Size the plan with a probe: Create's fsyncs, then the first batch's
	// WAL append, then the first background checkpoint's file fsync.
	probe := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: 1 << 30, Mode: faultfs.SyncError})
	pd := mustTB(CreateWithFS(probe, t.TempDir(), fx.initial.Clone(), fx.subset, cfg))
	createSyncs := probe.Ops()
	must0tb(pd.Close())

	var (
		mu    sync.Mutex
		ckpts []error
	)
	cfg.Trace = func(ev TraceEvent) {
		if ev.Kind == TraceCheckpoint {
			mu.Lock()
			ckpts = append(ckpts, ev.Err)
			mu.Unlock()
		}
	}
	ffs := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: createSyncs + 2, Mode: faultfs.SyncError})
	d := mustTB(CreateWithFS(ffs, t.TempDir(), fx.initial.Clone(), fx.subset, cfg))
	for i, b := range fx.batches[:2] {
		if _, err := d.ApplyEvents(bgt, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		d.ckptWG.Wait() // this batch's checkpoint has finished
	}
	mu.Lock()
	got := slices.Clone(ckpts)
	mu.Unlock()
	if len(got) != 2 || got[0] == nil || got[1] != nil {
		t.Fatalf("checkpoint outcomes %v, want a failure then a success", got)
	}
	if err := d.Close(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Close returned %v, want the first checkpoint's injected fsync error", err)
	}
}

// TestCrashPointMatrix is the fault-injection acceptance test: for every
// failure mode, the fault point k is swept from the first filesystem
// operation until a run completes with no fault fired — so every crash
// point of the workload (record appends, segment rotations, checkpoint
// writes, renames, prunes) is visited exactly once. After every fault,
// Open must land on a self-check-clean state equal to a committed prefix
// of the stream (never shorter than what was acknowledged: every
// acknowledged batch is fsynced), and the store must accept further
// updates.
func TestCrashPointMatrix(t *testing.T) {
	runCrashMatrix(t, newDurableFixture(t))
}

func runCrashMatrix(t *testing.T, fx *durableFixture) {
	plans := []struct {
		name string
		plan faultfs.Plan
	}{
		{"crash-torn", faultfs.Plan{Mode: faultfs.Crash}},
		{"crash-dropcache", faultfs.Plan{Mode: faultfs.Crash, DropUnsynced: true}},
		{"bitflip", faultfs.Plan{Mode: faultfs.BitFlip}},
		{"syncerror", faultfs.Plan{Mode: faultfs.SyncError}},
	}
	for _, tc := range plans {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			points := 0
			for k := 1; ; k++ {
				plan := tc.plan
				plan.FailAt = k
				dir := t.TempDir()
				ffs := faultfs.Wrap(wal.OS, plan)
				acked, createFailed, werr := fx.runWorkload(ffs, dir)
				if !ffs.Fired() {
					if werr != nil {
						t.Fatalf("k=%d: fault never fired yet the workload failed: %v", k, werr)
					}
					break // swept past the last operation: matrix complete
				}
				points++
				fx.verifyRecovery(t, dir, k, acked, createFailed, tc.plan.Mode)
			}
			if points < 10 {
				t.Fatalf("sweep visited only %d fault points — the workload shrank?", points)
			}
			t.Logf("%s: %d fault points verified", tc.name, points)
		})
	}
}

// matClose is the non-fatal form of requireMatClose, for probing which
// shadow prefix a state corresponds to.
func matClose(got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range want[i] {
			if d := math.Abs(got[i][j] - want[i][j]); d > 1e-9*(1+math.Abs(want[i][j])) {
				return false
			}
		}
	}
	return true
}

// TestDiskFullDegradedReopen sweeps an injected ENOSPC across every
// write and fsync of the workload. At each fault point the store must
// either seal into read-only degraded mode (a WAL append failed: reads
// keep serving the pre-fault snapshot, further ingest returns a typed
// *DegradedError) or surface a plain checkpoint error with the batch
// still applied. After the operator clears the fault, Reopen must
// restore ingest, the rest of the stream must apply, and a final
// Close/Open round trip must land on the full-stream shadow — no
// acknowledged batch lost anywhere in the sweep.
func TestDiskFullDegradedReopen(t *testing.T) {
	fx := newDurableFixture(t)
	var traceMu sync.Mutex
	seals, reopens := 0, 0
	cfg := fx.cfg
	cfg.Trace = func(ev TraceEvent) {
		if ev.Kind != TraceDegraded {
			return
		}
		traceMu.Lock()
		if ev.Err != nil {
			seals++
		} else {
			reopens++
		}
		traceMu.Unlock()
	}
	points, degradedPoints := 0, 0
	for k := 1; ; k++ {
		dir := t.TempDir()
		ffs := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: k, Mode: faultfs.DiskFull})
		label := fmt.Sprintf("diskfull@%d", k)
		d, err := CreateWithFS(ffs, dir, fx.initial.Clone(), fx.subset, cfg)
		if err != nil {
			if !ffs.Fired() {
				t.Fatalf("%s: Create failed without the fault firing: %v", label, err)
			}
			if !errors.Is(err, faultfs.ErrDiskFull) {
				t.Fatalf("%s: Create failed with %v, want ErrDiskFull", label, err)
			}
			// The disk filled during Create: nothing was ever acknowledged.
			// Once space frees, the directory either never committed its
			// first checkpoint (ErrNoState) or recovers to the empty prefix.
			ffs.Clear()
			if d2, err := OpenWithFS(ffs, dir, cfg); err == nil {
				requireMatClose(t, d2.Embedder().Embedding(), fx.shadow[0], label+" post-create-fault embedding")
				d2.Close()
			} else if !errors.Is(err, ErrNoState) {
				t.Fatalf("%s: Open after cleared create fault: %v", label, err)
			}
			points++
			continue
		}

		applied := 0
		sealed := false
		for applied < len(fx.batches) {
			_, err := d.ApplyEvents(nil, fx.batches[applied])
			if err == nil {
				applied++
				continue
			}
			if !ffs.Fired() {
				t.Fatalf("%s: batch %d failed without the fault firing: %v", label, applied, err)
			}
			var de *DegradedError
			if errors.As(err, &de) {
				sealed = true
				if !errors.Is(err, faultfs.ErrDiskFull) {
					t.Fatalf("%s: DegradedError does not wrap ErrDiskFull: %v", label, err)
				}
				if d.Degraded() == nil {
					t.Fatalf("%s: DegradedError returned but Degraded() is nil", label)
				}
				// Reads keep serving the last published snapshot.
				requireMatClose(t, d.Embedder().Embedding(), fx.shadow[applied], label+" degraded reads")
				// Ingest stays sealed until Reopen, even after retrying.
				if _, err := d.ApplyEvents(nil, fx.batches[applied]); !errors.As(err, &de) {
					t.Fatalf("%s: ingest while degraded returned %v, want *DegradedError", label, err)
				}
				// Reopen before the fault clears fails and stays degraded.
				if err := d.Reopen(); err == nil {
					t.Fatalf("%s: Reopen succeeded while the disk is still full", label)
				}
				if d.Degraded() == nil {
					t.Fatalf("%s: failed Reopen cleared degraded mode", label)
				}
				ffs.Clear()
				if err := d.Reopen(); err != nil {
					t.Fatalf("%s: Reopen after clearing the fault: %v", label, err)
				}
				if d.Degraded() != nil {
					t.Fatalf("%s: Reopen left the store degraded", label)
				}
				// A failed fsync can leave the unacknowledged batch fully
				// logged; Reopen folds it in so memory matches replay.
				if matClose(d.Embedder().Embedding(), fx.shadow[applied+1]) {
					applied++
				} else {
					requireMatClose(t, d.Embedder().Embedding(), fx.shadow[applied], label+" reopened embedding")
				}
				continue
			}
			// Not an append failure: the checkpoint I/O hit ENOSPC after the
			// batch was logged and applied. The store must not be sealed.
			if d.Degraded() != nil {
				t.Fatalf("%s: checkpoint failure sealed the store: %v", label, err)
			}
			applied++
			ffs.Clear()
		}
		if sealed {
			degradedPoints++
		}
		requireMatClose(t, d.Embedder().Embedding(), fx.shadow[len(fx.batches)], label+" final embedding")
		// The sweep tail pushes the fault into the epilogue — shutdown
		// checkpoint, directory reopen, the post-recovery probe. An ENOSPC
		// there is operator-visible but must not lose acked data either.
		tolerateDiskFull := func(stage string, err error) {
			t.Helper()
			if err == nil {
				return
			}
			if !ffs.Fired() || !errors.Is(err, faultfs.ErrDiskFull) {
				t.Fatalf("%s: %s: %v", label, stage, err)
			}
			ffs.Clear()
		}
		tolerateDiskFull("Close", d.Close())
		// The directory must recover to the full stream on a fresh Open.
		d2, err := OpenWithFS(ffs, dir, cfg)
		if err != nil {
			tolerateDiskFull("reopen directory", err)
			if d2, err = OpenWithFS(ffs, dir, cfg); err != nil {
				t.Fatalf("%s: reopen directory after clearing the fault: %v", label, err)
			}
		}
		requireMatClose(t, d2.Embedder().Embedding(), fx.shadow[len(fx.batches)], label+" recovered embedding")
		if _, err := d2.ApplyEvents(nil, []Event{{U: 1, V: 2, Type: Insert}}); err != nil {
			tolerateDiskFull("post-recovery ApplyEvents", err)
		}
		tolerateDiskFull("post-recovery Close", d2.Close())
		points++
		if !ffs.Fired() {
			break // swept past the last write/sync: matrix complete
		}
	}
	if points < 10 || degradedPoints < 3 {
		t.Fatalf("sweep visited %d fault points, %d of them degraded — the workload shrank?", points, degradedPoints)
	}
	traceMu.Lock()
	defer traceMu.Unlock()
	// Every mid-stream seal was Reopened; the epilogue probe can add seals
	// that are closed out without a Reopen, so seals may exceed reopens.
	if reopens != degradedPoints || seals < degradedPoints {
		t.Fatalf("TraceDegraded fired %d seals / %d reopens, want >=%d seals and exactly %d reopens",
			seals, reopens, degradedPoints, degradedPoints)
	}
	t.Logf("diskfull: %d fault points verified, %d sealed into degraded mode", points, degradedPoints)
}

// TestShardedDurableRoundTrip: with subset sharding removed, Create with
// the retired Shards 3 is refused before it commits anything, so the
// directory holds no state; the retired Shards 1 still means one tree and
// its create/run/reopen recovers the unsharded shadow.
func TestShardedDurableRoundTrip(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	cfg := fx.cfg
	cfg.Config.Shards = 3
	if _, err := Create(dir, fx.initial.Clone(), fx.subset, cfg); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("Create with Shards 3: %v, want an error saying sharding was removed", err)
	}
	if _, err := Open(dir, cfg); !errors.Is(err, ErrNoState) {
		t.Fatalf("Open after a refused Create: %v, want ErrNoState", err)
	}

	fx.cfg.Config.Shards = 1
	acked, createFailed, err := fx.runWorkload(wal.OS, dir)
	if err != nil || createFailed || acked != len(fx.batches) {
		t.Fatalf("workload: acked %d, createFailed %v, err %v", acked, createFailed, err)
	}
	d, err := Open(dir, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	info := d.Recovery()
	if got := int(info.CheckpointSeq) + info.ReplayedBatches; got != len(fx.batches) {
		t.Fatalf("recovered prefix %d, want %d", got, len(fx.batches))
	}
	requireMatClose(t, d.Embedder().Embedding(), fx.shadow[len(fx.batches)], "reopened Shards 1 embedding")
}

func (fx *durableFixture) verifyRecovery(t *testing.T, dir string, k, acked int, createFailed bool, mode faultfs.Mode) {
	t.Helper()
	label := fmt.Sprintf("%v@%d", mode, k)
	d, err := Open(dir, fx.cfg)
	if err != nil {
		// The only acceptable failure: the fault struck before Create
		// committed the first checkpoint, so the store never existed and
		// nothing was ever acknowledged.
		if createFailed && errors.Is(err, ErrNoState) {
			return
		}
		t.Fatalf("%s: Open: %v (createFailed=%v)", label, err, createFailed)
	}
	defer d.Close()
	info := d.Recovery()
	prefix := int(info.CheckpointSeq) + info.ReplayedBatches
	if prefix > len(fx.batches) {
		t.Fatalf("%s: recovered prefix %d beyond the %d-batch stream", label, prefix, len(fx.batches))
	}
	// Durability floor: with per-batch fsync, every acknowledged batch
	// survives any crash. A silent bit flip is the one mode allowed to
	// cost acknowledged (but still checksummed-detectable) records — that
	// is lenient recovery degrading to the longest verifiable prefix.
	if mode != faultfs.BitFlip && prefix < acked {
		t.Fatalf("%s: recovered prefix %d < %d acknowledged batches", label, prefix, acked)
	}
	requireMatClose(t, d.Embedder().Embedding(), fx.shadow[prefix], label+" embedding")
	// The recovered store must stay serviceable.
	extra := []Event{{U: 1, V: 2, Type: Insert}, {U: 2, V: 4, Type: Insert}}
	if _, err := d.ApplyEvents(nil, extra); err != nil {
		t.Fatalf("%s: post-recovery ApplyEvents: %v", label, err)
	}
}
