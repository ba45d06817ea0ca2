package treesvd

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
	// proxNorm[i] = ‖M‖_F after batches[:i]. The lazy trigger leaves the
	// embedding unchanged across many of the fixture's batches; the
	// proximity matrix moves with every one.
	proxNorm []float64
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
			CheckpointEvery: -1, // see checkpointAfter: a segment starts at each checkpoint
		},
	}
	emb, err := New(initial.Clone(), subset, fx.cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	fx.shadow = append(fx.shadow, copyMat(emb.Embedding()))
	fx.proxNorm = append(fx.proxNorm, emb.ProximityFrobNorm())
	for i, b := range batches {
		if _, err := emb.ApplyEvents(bgt, b); err != nil {
			t.Fatalf("shadow batch %d: %v", i, err)
		}
		fx.shadow = append(fx.shadow, copyMat(emb.Embedding()))
		fx.proxNorm = append(fx.proxNorm, emb.ProximityFrobNorm())
	}
	return fx
}

// requireState asserts that e holds the state after batches[:i]: its
// published embedding and its live proximity matrix.
func (fx *durableFixture) requireState(t testing.TB, e *Embedder, i int, label string) {
	t.Helper()
	requireMatEqual(t, e.Embedding(), fx.shadow[i], label)
	if got, want := e.ProximityFrobNorm(), fx.proxNorm[i]; got != want {
		t.Fatalf("%s: ‖M‖_F = %.12g, want %.12g, the state after %d batches", label, got, want, i)
	}
}

func copyMat(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, r := range m {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// requireMatEqual asserts entrywise equality, bit for bit: a restored
// state computes exactly what the never-saved one does.
func requireMatEqual(t testing.TB, got, want [][]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: entry (%d,%d) = %g, want %g", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// checkpointAfter takes the fixture's checkpoint after every 2nd
// acknowledged batch. It is synchronous, so a fault sweep meets every
// checkpoint operation at the same point of every run.
func checkpointAfter(d *Embedder, acked int) error {
	if acked%2 != 0 {
		return nil
	}
	return d.Checkpoint()
}

// runWorkload drives the whole fixture stream through a durable embedder
// on fsys, stopping at the first error the way a dying process would.
// unlogged reports that memory holds the batch it stopped at, whose
// append failed: the fault fell between "computed" and "durable".
func (fx *durableFixture) runWorkload(fsys wal.FS, dir string) (acked int, createFailed, unlogged bool, err error) {
	d, err := CreateWithFS(fsys, dir, fx.initial.Clone(), fx.subset, fx.cfg)
	if err != nil {
		return 0, true, false, err
	}
	for _, b := range fx.batches {
		if _, err := d.ApplyEvents(nil, b); err != nil {
			return acked, false, d.ProximityFrobNorm() == fx.proxNorm[acked+1], err
		}
		acked++
		if err := checkpointAfter(d, acked); err != nil {
			return acked, false, false, err
		}
	}
	return acked, false, false, d.Close()
}

func TestDurableCreateOpenRoundTrip(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	acked, createFailed, _, err := fx.runWorkload(wal.OS, dir)
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
	requireMatEqual(t, d.Embedding(), fx.shadow[len(fx.batches)], "reopened embedding")
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

// TestDurableRebuildRefused: a durable store refuses Rebuild and changes
// nothing, since its log holds edge events only. After 3 batches, the
// refused Rebuild and 3 more, the store serves the no-rebuild state bit
// for bit, before Close and after Open. A rebuild that was served but
// never logged would be lost at the restart: the reopened embedding would
// differ from the one served before it.
func TestDurableRebuildRefused(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	d := mustTB(Create(dir, fx.initial.Clone(), fx.subset, fx.cfg))
	for _, b := range fx.batches[:3] {
		mustTB(d.ApplyEvents(bgt, b))
	}
	version, rebuilds := d.Version(), d.Metrics().Rebuilds
	if err := d.Rebuild(bgt); err == nil {
		t.Fatal("Rebuild on a durable store succeeded, want an error")
	}
	if got := d.Version(); got != version {
		t.Fatalf("refused Rebuild published version %d, want %d", got, version)
	}
	if got := d.Metrics().Rebuilds; got != rebuilds {
		t.Fatalf("refused Rebuild counted: %d rebuilds, want %d", got, rebuilds)
	}
	fx.requireState(t, d, 3, "state after the refused Rebuild")
	for _, b := range fx.batches[3:] {
		mustTB(d.ApplyEvents(bgt, b))
	}
	fx.requireState(t, d, len(fx.batches), "state served before Close")
	must0tb(d.Close())
	d = mustTB(Open(dir, fx.cfg))
	defer d.Close()
	fx.requireState(t, d, len(fx.batches), "reopened state")
}

// TestOpenServesTheVersionBeforeClose: a reopened store publishes the
// version it served before Close, one more than the seq of its last
// batch, counted from the checkpoint's seq (4 here) plus the batches
// replayed (2), so a version names one state across a restart.
func TestOpenServesTheVersionBeforeClose(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	d := mustTB(Create(dir, fx.initial.Clone(), fx.subset, fx.cfg))
	for i, b := range fx.batches {
		mustTB(d.ApplyEvents(bgt, b))
		if i+1 == 4 {
			must0tb(d.Checkpoint())
		}
	}
	want := uint64(len(fx.batches) + 1)
	if got := d.Version(); got != want {
		t.Fatalf("version before Close = %d, want %d", got, want)
	}
	must0tb(d.Close())
	d = mustTB(Open(dir, fx.cfg))
	defer d.Close()
	if info := d.Recovery(); info.CheckpointSeq != 4 || info.ReplayedBatches != 2 {
		t.Fatalf("recovery %+v, want checkpoint 4 and 2 batches replayed", info)
	}
	if got := d.Version(); got != want {
		t.Fatalf("version after Open = %d, want %d, the version served before Close", got, want)
	}
	mustTB(d.ApplyEvents(bgt, fx.batches[0]))
	if got := d.Version(); got != want+1 {
		t.Fatalf("version after one more batch = %d, want %d", got, want+1)
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
	requireMatEqual(t, d.Embedding(), fx.shadow[len(fx.batches)], "replayed embedding")
}

// TestOpenStrictRecovery flips one payload byte of the first record in
// the first of two WAL segments — damage a crash cannot leave. With
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
	half := len(fx.batches) / 2
	for i, b := range fx.batches {
		if i == half { // the reopened writer starts the second segment
			must0tb(d.Close())
			d = mustTB(Open(dir, cfg))
		}
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
	requireMatEqual(t, d.Embedding(), fx.shadow[0], "checkpoint-only embedding")
}

// TestDurableCheckpointPrunesWAL: every checkpoint starts a WAL segment
// at its seq+1, and a commit removes the log the older kept checkpoint
// covers, so the store ends with one segment per kept checkpoint.
func TestDurableCheckpointPrunesWAL(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	if _, _, _, err := fx.runWorkload(wal.OS, dir); err != nil {
		t.Fatal(err)
	}
	// Open's writer starts the segment the last checkpoint marked: no
	// record followed that checkpoint before Close.
	must0tb(mustTB(Open(dir, fx.cfg)).Close())
	var ckpts, segs []string
	for _, n := range dirNames(t, dir) {
		switch filepath.Ext(n) {
		case ".ckpt":
			ckpts = append(ckpts, n)
		case ".log":
			segs = append(segs, n)
		}
	}
	// Checkpoints after batches 2, 4 and 6; the two newest are kept.
	wantCkpts := []string{"checkpoint-0000000000000004.ckpt", "checkpoint-0000000000000006.ckpt"}
	wantSegs := []string{"wal-0000000000000005.log", "wal-0000000000000007.log"}
	if !slices.Equal(ckpts, wantCkpts) || !slices.Equal(segs, wantSegs) {
		t.Fatalf("store holds checkpoints %v and segments %v, want %v and %v", ckpts, segs, wantCkpts, wantSegs)
	}
}

// TestOpenSkipsLogItsCheckpointCovers: a record damaged before the
// checkpoint Open restores costs none of the acknowledged batches after
// it. The checkpoint after batch 4 started the segment of batch 5, so
// Open never reads the segment holding the damaged batch 2.
func TestOpenSkipsLogItsCheckpointCovers(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	d := mustTB(Create(dir, fx.initial.Clone(), fx.subset, fx.cfg))
	for i, b := range fx.batches {
		mustTB(d.ApplyEvents(bgt, b))
		if i+1 == 4 {
			must0tb(d.Checkpoint())
		}
	}
	must0tb(d.Close())
	first := filepath.Join(dir, "wal-0000000000000001.log")
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	// Segment header, record 1 (header and payload), record 2's header,
	// then one byte into record 2's payload.
	raw[8+16+int(binary.LittleEndian.Uint32(raw[8:]))+16+1] ^= 0x40
	must0tb(os.WriteFile(first, raw, 0o644))

	d = mustTB(Open(dir, fx.cfg))
	info := d.Recovery()
	if info.CheckpointSeq != 4 || info.ReplayedBatches != 2 || info.DroppedBatches != 0 {
		t.Fatalf("recovery = %+v, want checkpoint 4, 2 batches replayed, none dropped", info)
	}
	fx.requireState(t, d, len(fx.batches), "state after Open")
	must0tb(d.Close())
	if after, err := os.ReadFile(first); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("Open changed the segment its checkpoint covers (%v)", err)
	}

	// Nor may a restart after a seal touch it: a failed fsync seals the
	// store on one more batch (batch 1's events again), Close cuts that
	// batch's record out, and the next Open replays every acknowledged
	// batch and no other.
	for k := 1; ; k++ {
		label := fmt.Sprintf("syncerror@%d", k)
		sdir := copyStore(t, dir)
		ffs := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: k, Mode: faultfs.SyncError})
		s, err := OpenWithFS(ffs, sdir, fx.cfg)
		if err != nil || ffs.Fired() {
			if err == nil {
				must0tb(s.Close())
			}
			continue // the fault hit Open itself
		}
		_, err = s.ApplyEvents(bgt, fx.batches[0])
		if !ffs.Fired() {
			t.Fatalf("%s: no fsync of the batch failed (%v)", label, err)
		}
		if !errors.As(err, new(*DegradedError)) {
			t.Fatalf("%s: batch returned %v, want a *DegradedError", label, err)
		}
		must0tb(s.Close())
		if after, err := os.ReadFile(filepath.Join(sdir, filepath.Base(first))); err != nil || !bytes.Equal(after, raw) {
			t.Fatalf("%s: the restart changed the segment the checkpoint covers (%v)", label, err)
		}
		r := mustTB(Open(sdir, fx.cfg))
		defer r.Close()
		if info := r.Recovery(); info.CheckpointSeq != 4 || info.ReplayedBatches != 2 || info.DroppedBatches != 0 {
			t.Fatalf("%s: recovery after the restart = %+v, want checkpoint 4, 2 batches replayed, none dropped", label, info)
		}
		fx.requireState(t, r, len(fx.batches), label+" Open after the restart")
		return
	}
}

// TestOpenCountsEveryDroppedBatch: a checksum fault in an early record
// of the replayed log cuts it and every record after it, and recovery
// counts each of them, not only the faulted one.
func TestOpenCountsEveryDroppedBatch(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	d := mustTB(Create(dir, fx.initial.Clone(), fx.subset, fx.cfg))
	for _, b := range fx.batches {
		mustTB(d.ApplyEvents(bgt, b))
	}
	must0tb(d.Close())
	// One byte into record 2's payload, as in
	// TestOpenSkipsLogItsCheckpointCovers; here its segment is replayed.
	seg := filepath.Join(dir, "wal-0000000000000001.log")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[8+16+int(binary.LittleEndian.Uint32(raw[8:]))+16+1] ^= 0x40
	must0tb(os.WriteFile(seg, raw, 0o644))

	d = mustTB(Open(dir, fx.cfg))
	defer d.Close()
	info := d.Recovery()
	if info.CheckpointSeq != 0 || info.ReplayedBatches != 1 || info.DroppedBatches != len(fx.batches)-1 {
		t.Fatalf("recovery = %+v, want checkpoint 0, 1 batch replayed, %d dropped", info, len(fx.batches)-1)
	}
	fx.requireState(t, d, 1, "state after Open")
}

// TestOpenFallsBackPastCorruptCheckpoint damages the newest checkpoint:
// Open must bypass it, restore the previous one and replay the WAL to the
// full stream. One leg flips a byte inside the payload; it sets the
// retired Shards 1, the one leg left of the former 1-and-3-shard pair,
// which still means one tree. The other flips byte 4, the header's format
// version, which sits outside the checkpoint's CRC: a foreign version
// cannot be told from a bit flip, so it counts as damage too.
func TestOpenFallsBackPastCorruptCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		flipAt func(size int) int
	}{
		{"shards=1", 1, func(size int) int { return size / 2 }},
		{"header_version", 0, func(int) int { return 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newDurableFixture(t)
			fx.cfg.Config.Shards = tc.shards
			dir := t.TempDir()
			if _, _, _, err := fx.runWorkload(wal.OS, dir); err != nil {
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
			data[tc.flipAt(len(data))] ^= 0x20
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
			requireMatEqual(t, d.Embedding(), fx.shadow[len(fx.batches)], "fallback embedding")
		})
	}
}

func TestOpenRejectsFullyCorruptStore(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	if _, _, _, err := fx.runWorkload(wal.OS, dir); err != nil {
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

// TestDurableCancelledBatchNeitherLoggedNorApplied: a context cancelled
// before ApplyEvents fails the call with context.Canceled before the
// batch's record is written, so the batch is neither logged nor applied,
// and the stream goes on as if it had never been sent.
func TestDurableCancelledBatchNeitherLoggedNorApplied(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	d := mustTB(Create(dir, fx.initial.Clone(), fx.subset, fx.cfg))
	version := d.Version()
	cancelled, cancel := context.WithCancel(bgt)
	cancel()
	if _, err := d.ApplyEvents(cancelled, fx.batches[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled apply returned %v, want context.Canceled", err)
	}
	if got := d.Metrics().WAL.Appends; got != 0 {
		t.Fatalf("a cancelled batch appended %d WAL records, want 0", got)
	}
	if got := d.Version(); got != version {
		t.Fatalf("a cancelled batch published version %d, want %d", got, version)
	}
	fx.requireState(t, d, 0, "state after a cancelled batch")
	mustTB(d.ApplyEvents(bgt, fx.batches[0]))
	fx.requireState(t, d, 1, "state after the batch is sent again")
	must0tb(d.Close())
	// And the log agrees: the batch is logged once.
	d = mustTB(Open(dir, fx.cfg))
	defer d.Close()
	if info := d.Recovery(); int(info.CheckpointSeq)+info.ReplayedBatches != 1 {
		t.Fatalf("recovered %+v, want the one batch", info)
	}
	fx.requireState(t, d, 1, "reopened state")
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
	cfg.CheckpointEvery = 1
	// Size the plan with a probe: Create's fsyncs, then the first batch's
	// WAL append, then the first background checkpoint's file fsync.
	probe := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: 1 << 30, Mode: faultfs.SyncError})
	pd := mustTB(CreateWithFS(probe, t.TempDir(), fx.initial.Clone(), fx.subset, cfg))
	createSyncs := probe.Ops()
	must0tb(pd.Close())

	ffs := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: createSyncs + 2, Mode: faultfs.SyncError})
	d := mustTB(CreateWithFS(ffs, t.TempDir(), fx.initial.Clone(), fx.subset, cfg))
	// The failure shows in the counters as it happens, not only at Close:
	// after the first batch one failed commit, after the second one of each.
	for i, b := range fx.batches[:2] {
		if _, err := d.ApplyEvents(bgt, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		d.log.ckptWG.Wait() // this batch's checkpoint has finished
		if m := d.Metrics().WAL; m.CheckpointFailures != 1 || m.Checkpoints != uint64(i) {
			t.Fatalf("after batch %d: %d failed and %d committed checkpoints, want 1 and %d", i, m.CheckpointFailures, m.Checkpoints, i)
		}
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
// Open must land on an audit-clean state equal to a committed prefix
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
			points, unloggedPoints := 0, 0
			for k := 1; ; k++ {
				plan := tc.plan
				plan.FailAt = k
				dir := t.TempDir()
				ffs := faultfs.Wrap(wal.OS, plan)
				acked, createFailed, unlogged, werr := fx.runWorkload(ffs, dir)
				if !ffs.Fired() {
					if werr != nil {
						t.Fatalf("k=%d: fault never fired yet the workload failed: %v", k, werr)
					}
					break // swept past the last operation: matrix complete
				}
				points++
				if unlogged {
					unloggedPoints++
				}
				fx.verifyRecovery(t, dir, k, acked, createFailed, tc.plan.Mode)
			}
			if points < 10 {
				t.Fatalf("sweep visited only %d fault points — the workload shrank?", points)
			}
			// Every mode that fails an operation must also strike a record
			// append while its batch is computed in memory; a bit flip
			// fails nothing.
			if tc.plan.Mode != faultfs.BitFlip && unloggedPoints == 0 {
				t.Fatalf("no fault point fell between a batch computed and its record durable")
			}
			t.Logf("%s: %d fault points verified, %d between computed and durable", tc.name, points, unloggedPoints)
		})
	}
}

// TestDiskFullDegradedRestart sweeps an injected ENOSPC across every
// write and fsync of the workload. At each fault point the store must
// either seal into read-only degraded mode (a WAL append failed: reads
// keep serving the pre-fault snapshot, further ingest returns a typed
// *DegradedError) or surface a plain checkpoint error with the batch
// still applied. After the operator clears the fault, Close (which cuts
// the failed record out) and Open must land exactly on the acknowledged
// prefix, without the failed batch, which was applied in memory while
// its append ran; resending it and the rest of the stream, and a final
// Close/Open round trip, must land on the full-stream shadow — no batch
// lost or applied twice anywhere in the sweep.
func TestDiskFullDegradedRestart(t *testing.T) {
	fx := newDurableFixture(t)
	cfg := fx.cfg
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
				requireMatEqual(t, d2.Embedding(), fx.shadow[0], label+" post-create-fault embedding")
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
			version := d.Version()
			_, err := d.ApplyEvents(nil, fx.batches[applied])
			if err == nil {
				applied++
				if err := checkpointAfter(d, applied); err != nil {
					// The checkpoint I/O hit ENOSPC after the batch was
					// logged and applied. The store must not be sealed.
					if !ffs.Fired() {
						t.Fatalf("%s: checkpoint after batch %d failed without the fault firing: %v", label, applied-1, err)
					}
					if d.Degraded() != nil {
						t.Fatalf("%s: checkpoint failure sealed the store: %v", label, err)
					}
					ffs.Clear()
				}
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
				if got := d.Version(); got != version {
					t.Fatalf("%s: degraded store published version %d, want %d", label, got, version)
				}
				requireMatEqual(t, d.Embedding(), fx.shadow[applied], label+" degraded reads")
				// Ingest stays sealed until Close, even after retrying.
				if _, err := d.ApplyEvents(nil, fx.batches[applied]); !errors.As(err, &de) {
					t.Fatalf("%s: ingest while degraded returned %v, want *DegradedError", label, err)
				}
				if s, g := d.log.met.seals.Load(), d.log.met.degraded.Load(); s != 1 || g != 1 {
					t.Fatalf("%s: degraded_seals_total %d, degraded %d; want 1, 1", label, s, g)
				}
				// The one way back is a restart: the failed batch was applied
				// in memory while its append ran, Close cuts its record out,
				// and Open lands on the acknowledged prefix without it. The
				// loop then resends it.
				ffs.Clear()
				if err := d.Close(); err != nil {
					t.Fatalf("%s: Close of the sealed store after clearing the fault: %v", label, err)
				}
				if d, err = OpenWithFS(ffs, dir, cfg); err != nil {
					t.Fatalf("%s: Open after clearing the fault: %v", label, err)
				}
				fx.requireState(t, d, applied, label+" state after the restart")
				continue
			}
			t.Fatalf("%s: batch %d failed with %v, want a *DegradedError", label, applied, err)
		}
		if sealed {
			degradedPoints++
		}
		// The store that finished the stream never sealed: a sealed one
		// was closed and replaced by an Open.
		if s, g := d.log.met.seals.Load(), d.log.met.degraded.Load(); s != 0 || g != 0 {
			t.Fatalf("%s: degraded_seals_total %d, degraded %d; want 0, 0", label, s, g)
		}
		fx.requireState(t, d, len(fx.batches), label+" final state")
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
		fx.requireState(t, d2, len(fx.batches), label+" recovered state")
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
	acked, createFailed, _, err := fx.runWorkload(wal.OS, dir)
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
	requireMatEqual(t, d.Embedding(), fx.shadow[len(fx.batches)], "reopened Shards 1 embedding")
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
	fx.requireState(t, d, prefix, label+" state")
	// The recovered store must stay serviceable.
	extra := []Event{{U: 1, V: 2, Type: Insert}, {U: 2, V: 4, Type: Insert}}
	if _, err := d.ApplyEvents(nil, extra); err != nil {
		t.Fatalf("%s: post-recovery ApplyEvents: %v", label, err)
	}
}

// gatedSyncFS is the OS filesystem with a gate on the WAL: once armed, the
// next fsync of a segment file signals entered and blocks until release
// is closed.
type gatedSyncFS struct {
	wal.FS
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

// arm gates the next segment fsync.
func (g *gatedSyncFS) arm() (entered, release chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entered, g.release = make(chan struct{}), make(chan struct{})
	return g.entered, g.release
}

func (g *gatedSyncFS) Create(name string) (wal.File, error) {
	f, err := g.FS.Create(name)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return f, err
	}
	return gatedFile{File: f, fs: g}, nil
}

type gatedFile struct {
	wal.File
	fs *gatedSyncFS
}

func (f gatedFile) Sync() error {
	f.fs.mu.Lock()
	entered, release := f.fs.entered, f.fs.release
	f.fs.entered, f.fs.release = nil, nil
	f.fs.mu.Unlock()
	if entered != nil {
		close(entered)
		<-release
	}
	return f.File.Sync()
}

// TestNothingVisibleBeforeDurable holds a batch's record fsync and checks
// that nothing of the batch escapes meanwhile: readers keep the
// pre-batch version, embedding and edge count after the in-memory apply
// has finished, and ApplyEvents has not returned. Releasing the fsync
// publishes exactly one new version.
func TestNothingVisibleBeforeDurable(t *testing.T) {
	fx := newDurableFixture(t)
	cfg := fx.cfg
	fsys := &gatedSyncFS{FS: wal.OS}
	d := mustTB(CreateWithFS(fsys, t.TempDir(), fx.initial.Clone(), fx.subset, cfg))
	defer d.Close()
	version, edges := d.Version(), d.Snapshot().NumEdges()
	updates := d.tree.Metrics().Updates.Load()

	entered, release := fsys.arm()
	released := false
	defer func() { // on a failure, before d.Close waits for the held batch
		if !released {
			close(release)
		}
	}()
	applied := make(chan error, 1)
	go func() {
		_, err := d.ApplyEvents(bgt, fx.batches[0])
		applied <- err
	}()
	<-entered
	// Let the in-memory apply run to its end: the tree update, then the
	// snapshot build, which a wrong order would publish right away.
	for deadline := time.Now().Add(5 * time.Second); d.tree.Metrics().Updates.Load() == updates; {
		if time.Now().After(deadline) {
			t.Fatal("the in-memory apply did not finish while the fsync was held")
		}
		time.Sleep(time.Millisecond)
	}
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if got := d.Version(); got != version {
			t.Fatalf("version %d published while the batch's fsync was held (want %d)", got, version)
		}
		requireMatEqual(t, d.Embedding(), fx.shadow[0], "embedding while the fsync is held")
		if n := d.Snapshot().NumEdges(); n != edges {
			t.Fatalf("snapshot reports %d edges while the batch's fsync was held, want %d", n, edges)
		}
		select {
		case err := <-applied:
			t.Fatalf("ApplyEvents returned (%v) while its fsync was held", err)
		default:
		}
	}

	close(release)
	released = true
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if got := d.Version(); got != version+1 {
		t.Fatalf("version after the fsync = %d, want %d", got, version+1)
	}
	requireMatEqual(t, d.Embedding(), fx.shadow[1], "embedding after the fsync")
	if n := d.Snapshot().NumEdges(); n == edges {
		t.Fatalf("snapshot reads %d edges, the pre-batch count; want the batch's", n)
	}
}

// copyStore copies the files of a durable store to a fresh directory, the
// way an operator would snapshot it.
func copyStore(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// dirNames lists dir's file names.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := wal.OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestFailedAppendUnloggedBatch fails the first batch's WAL append at its
// write or its fsync. The batch was applied in memory meanwhile, but the
// store seals with nothing published and refuses a checkpoint, which
// would label that state with the wrong seq. Once the fault is cleared,
// Close cuts whatever of the record reached the file — in the
// diskfull-at-fsync case the failed append's own cut failed too — and
// Open lands on the state before the batch; resending it applies it
// exactly once, and the stream goes on. A cancellation while the
// record's fsync is held changes nothing: the apply was owed once the
// record was on its way.
func TestFailedAppendUnloggedBatch(t *testing.T) {
	fx := newDurableFixture(t)
	cfg := fx.cfg
	cases := []struct {
		name   string
		mode   faultfs.Mode
		offset int // the failing op, counted from the first after Create
		cancel bool
	}{
		{"syncerror-at-fsync", faultfs.SyncError, 1, false},
		{"diskfull-at-write", faultfs.DiskFull, 1, false},
		{"diskfull-at-fsync", faultfs.DiskFull, 2, false},
		{"syncerror-at-fsync-cancelled", faultfs.SyncError, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: 1 << 30, Mode: tc.mode})
			pd := mustTB(CreateWithFS(probe, t.TempDir(), fx.initial.Clone(), fx.subset, cfg))
			createOps := probe.Ops()
			must0tb(pd.Close())

			dir := t.TempDir()
			ffs := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: createOps + tc.offset, Mode: tc.mode})
			gated := &gatedSyncFS{FS: ffs}
			d := mustTB(CreateWithFS(gated, dir, fx.initial.Clone(), fx.subset, cfg))
			defer d.Close()
			version := d.Version()
			ctx, cancel := context.WithCancel(bgt)
			defer cancel()
			applied := make(chan error, 1)
			if tc.cancel {
				entered, release := gated.arm()
				go func() { _, err := d.ApplyEvents(ctx, fx.batches[0]); applied <- err }()
				<-entered
				cancel()
				close(release)
			} else {
				_, err := d.ApplyEvents(ctx, fx.batches[0])
				applied <- err
			}
			var de *DegradedError
			if err := <-applied; !errors.As(err, &de) || !ffs.Fired() {
				t.Fatalf("ApplyEvents with a failing append: %v (fault fired %v), want *DegradedError", err, ffs.Fired())
			}
			if d.Version() != version {
				t.Fatalf("degraded store published version %d, want %d", d.Version(), version)
			}
			requireMatEqual(t, d.Embedding(), fx.shadow[0], "degraded reads")
			files := dirNames(t, dir)
			if err := d.Checkpoint(); !errors.As(err, &de) {
				t.Fatalf("Checkpoint while degraded: %v, want *DegradedError", err)
			}
			if got := dirNames(t, dir); !slices.Equal(got, files) {
				t.Fatalf("Checkpoint while degraded changed the directory: %v -> %v", files, got)
			}

			ffs.Clear()
			must0tb(d.Close())
			d = mustTB(Open(dir, cfg))
			if info := d.Recovery(); info.ReplayedBatches != 0 {
				t.Fatalf("Open after the failed append recovered %+v, want no replayed batch", info)
			}
			fx.requireState(t, d, 0, "state after the restart")
			for i, b := range fx.batches[:2] { // the failed batch resent, then the next
				mustTB(d.ApplyEvents(bgt, b))
				fx.requireState(t, d, i+1, fmt.Sprintf("state after batch %d", i))
			}
			must0tb(d.Close())
			reopened := mustTB(Open(dir, cfg))
			defer reopened.Close()
			fx.requireState(t, reopened, 2, "recovered state")
		})
	}
}

// TestCloseOnFullDiskReportsTheCut: the first batch's record is written
// whole, but its fsync fails on a full disk and so does the failed
// append's cut. Close of the sealed store, with the disk still full,
// retries the cut and reports its failure; the record then stays, and an
// Open once the disk has space replays it, like a batch in flight at a
// crash.
func TestCloseOnFullDiskReportsTheCut(t *testing.T) {
	fx := newDurableFixture(t)
	cfg := fx.cfg
	probe := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: 1 << 30, Mode: faultfs.DiskFull})
	pd := mustTB(CreateWithFS(probe, t.TempDir(), fx.initial.Clone(), fx.subset, cfg))
	createOps := probe.Ops()
	must0tb(pd.Close())

	dir := t.TempDir()
	ffs := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: createOps + 2, Mode: faultfs.DiskFull}) // the record's fsync
	d := mustTB(CreateWithFS(ffs, dir, fx.initial.Clone(), fx.subset, cfg))
	if _, err := d.ApplyEvents(bgt, fx.batches[0]); !errors.As(err, new(*DegradedError)) || !ffs.Fired() {
		t.Fatalf("ApplyEvents with its record's fsync failing: %v (fault fired %v), want *DegradedError", err, ffs.Fired())
	}
	if err := d.Close(); !errors.Is(err, faultfs.ErrDiskFull) {
		t.Fatalf("Close of the sealed store on a full disk: %v, want an error wrapping ErrDiskFull", err)
	}
	ffs.Clear()
	opened := mustTB(Open(dir, cfg))
	defer opened.Close()
	if info := opened.Recovery(); info.ReplayedBatches != 1 {
		t.Fatalf("Open after the failed cut recovered %+v, want the failed batch replayed", info)
	}
	fx.requireState(t, opened, 1, "state after Open")
}

// TestOpenAfterFailedFsyncReplaysNothing: a record whose fsync failed
// proves nothing, and a retried fsync after a failed one may report
// success without its bytes. The failed append cuts the record, so the
// restart opens the store without it: Open replays nothing and lands on
// the state before the batch.
func TestOpenAfterFailedFsyncReplaysNothing(t *testing.T) {
	fx := newDurableFixture(t)
	cfg := fx.cfg
	probe := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: 1 << 30, Mode: faultfs.SyncError})
	pd := mustTB(CreateWithFS(probe, t.TempDir(), fx.initial.Clone(), fx.subset, cfg))
	createOps := probe.Ops()
	must0tb(pd.Close())

	dir := t.TempDir()
	ffs := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: createOps + 1, Mode: faultfs.SyncError})
	d := mustTB(CreateWithFS(ffs, dir, fx.initial.Clone(), fx.subset, cfg))
	var de *DegradedError
	if _, err := d.ApplyEvents(bgt, fx.batches[0]); !errors.As(err, &de) || !ffs.Fired() {
		t.Fatalf("ApplyEvents with its record's fsync failing: %v (fault fired %v), want *DegradedError", err, ffs.Fired())
	}
	must0tb(d.Close())

	opened := mustTB(Open(dir, cfg))
	defer opened.Close()
	if info := opened.Recovery(); info.ReplayedBatches != 0 {
		t.Fatalf("Open after the failed fsync recovered %+v, want no replayed batch", info)
	}
	fx.requireState(t, opened, 0, "state after Open")
}

// powerLossAfterFailedFsync drives the fixture's first batch, then fails
// the second batch's record fsync through an outer faultfs in outerMode
// (outerOffset places that fsync among the operations outerMode counts
// after the first batch), closes the store and opens it on the inner
// faultfs, which must land on the first kept batches (the failed one
// included when its record survived), acknowledges the next two batches,
// closes the store and cuts the power: the inner faultfs, under the outer
// one, crashes at its next operation and drops every byte never fsynced.
// An Open of the directory must then recover all kept+2 batches.
func (fx *durableFixture) powerLossAfterFailedFsync(t *testing.T, outerMode faultfs.Mode, outerOffset, kept int) {
	t.Helper()
	const never = 1 << 30 // a FailAt that counts operations but never fires
	cfg := fx.cfg
	probe := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: never, Mode: outerMode})
	pd := mustTB(CreateWithFS(probe, t.TempDir(), fx.initial.Clone(), fx.subset, cfg))
	mustTB(pd.ApplyEvents(bgt, fx.batches[0]))
	failAt := probe.Ops() + outerOffset
	must0tb(pd.Close())

	scenario := func(dir string, powerAt int) *faultfs.FS {
		inner := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: powerAt, Mode: faultfs.Crash, DropUnsynced: true})
		outer := faultfs.Wrap(inner, faultfs.Plan{FailAt: failAt, Mode: outerMode})
		d := mustTB(CreateWithFS(outer, dir, fx.initial.Clone(), fx.subset, cfg))
		mustTB(d.ApplyEvents(bgt, fx.batches[0]))
		if _, err := d.ApplyEvents(bgt, fx.batches[1]); err == nil || !outer.Fired() {
			t.Fatalf("second batch with its fsync failing: %v (fault fired %v), want an error", err, outer.Fired())
		}
		d.Close() // cuts the failed record; after a crash it only releases descriptors
		d = mustTB(OpenWithFS(inner, dir, cfg))
		fx.requireState(t, d, kept, "state after restart")
		for _, b := range fx.batches[kept : kept+2] {
			mustTB(d.ApplyEvents(bgt, b))
		}
		must0tb(d.Close())
		return inner
	}
	dir := t.TempDir()
	inner := scenario(dir, scenario(t.TempDir(), never).Ops()+1)
	inner.SyncDir(dir) // the inner's next operation: the power fails
	if !inner.Crashed() {
		t.Fatal("the power loss never fired")
	}
	rd, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open after the power loss: %v", err)
	}
	defer rd.Close()
	if info := rd.Recovery(); int(info.CheckpointSeq)+info.ReplayedBatches != kept+2 || info.DroppedBatches != 0 {
		t.Fatalf("after the power loss Open recovered %+v, want all %d batches", info, kept+2)
	}
	fx.requireState(t, rd, kept+2, "state after the power loss")
}

// TestPowerLossAfterFailedFsyncAndRestart: a failed record fsync proves
// nothing about the record's bytes, and a retried fsync after a failed
// one may report success without them. The restart must open the store
// without the record, so that a power loss cannot take it while the
// records after it survive: the three acknowledged batches come back.
func TestPowerLossAfterFailedFsyncAndRestart(t *testing.T) {
	newDurableFixture(t).powerLossAfterFailedFsync(t, faultfs.SyncError, 1, 1)
}

// TestPowerLossAfterCrashBeforeFsyncAndOpen: a process crash between a
// record's write and its fsync leaves the record in the page cache. Open
// replays it, so it must be durable before the writer appends past it.
func TestPowerLossAfterCrashBeforeFsyncAndOpen(t *testing.T) {
	newDurableFixture(t).powerLossAfterFailedFsync(t, faultfs.Crash, 2, 2) // the record's write, then its fsync
}

// TestSaveHoldsNoWorkerCount: the worker count changes no bit of the
// state, so a save does not store it. Saves of one state computed at
// Workers 1 and 2 are the same bytes; a store created at Workers 2 and
// opened with Workers 1 runs at 1, and Load runs sequentially.
func TestSaveHoldsNoWorkerCount(t *testing.T) {
	fx := newDurableFixture(t)
	saves := map[int][]byte{}
	var dir2 string
	for _, workers := range []int{1, 2} {
		cfg := fx.cfg
		cfg.Config.Workers = workers
		dir := t.TempDir()
		d := mustTB(Create(dir, fx.initial.Clone(), fx.subset, cfg))
		for _, b := range fx.batches {
			mustTB(d.ApplyEvents(bgt, b))
		}
		var buf bytes.Buffer
		must0tb(d.Save(&buf))
		saves[workers] = buf.Bytes()
		must0tb(d.Close())
		dir2 = dir
	}
	if !bytes.Equal(saves[1], saves[2]) {
		t.Fatal("saves of one state at Workers 1 and 2 differ")
	}
	runsAt := func(e *Embedder) []int {
		return []int{e.cfg.Workers, e.prox.Sub.Engine.Params.Workers}
	}
	cfg := fx.cfg
	cfg.Config.Workers = 1
	d := mustTB(Open(dir2, cfg))
	defer d.Close()
	if got := runsAt(d); !slices.Equal(got, []int{1, 1}) {
		t.Fatalf("a store created at Workers 2 and opened with Workers 1 runs at %v (config, PPR), want 1", got)
	}
	fx.requireState(t, d, len(fx.batches), "opened state")
	if got := runsAt(mustTB(Load(bytes.NewReader(saves[2])))); !slices.Equal(got, []int{0, 0}) {
		t.Fatalf("a save loaded without a worker count runs at %v (config, PPR), want 0", got)
	}
	path := filepath.Join(t.TempDir(), "state.tsvd")
	must0tb(os.WriteFile(path, saves[1], 0o644))
	if got := runsAt(mustTB(LoadFile(path, 2))); !slices.Equal(got, []int{2, 2}) {
		t.Fatalf("a save written at Workers 1 and loaded with 2 runs at %v (config, PPR), want 2", got)
	}
	if _, err := Load(bytes.NewReader(saves[1]), 1, 2); err == nil {
		t.Fatal("Load accepted two worker counts")
	}
}
