// Crash-recovery leg of the differential fuzzer (durability ISSUE). Per
// seed, the same adversarial churn generator that drives TestDifferential
// feeds two pipelines: a never-persisted shadow embedder recording the
// ground-truth embedding after every batch prefix, and a durable embedder
// whose filesystem dies mid-stream at a seed-derived fault point. After
// the "crash", the store is reopened on the real filesystem and must land
// on an audit-clean state equal to a committed prefix of the stream —
// never shorter than what the WAL acknowledged under per-batch fsync —
// and must then track the shadow for the rest of the stream.
package check_test

import (
	"context"
	"errors"
	"strconv"
	"testing"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/faultfs"
	"github.com/tree-svd/treesvd/internal/wal"
)

// cloneMat deep-copies an embedding matrix.
func cloneMat(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, r := range m {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// requireEqual asserts entrywise equality, bit for bit: a recovered
// store computes exactly what the never-crashed shadow does.
func requireEqual(t *testing.T, got, want [][]float64, label string) {
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

func TestCrashRecoveryDifferential(t *testing.T) {
	seeds := fuzzSeeds(t)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(strconv.Itoa(seed), func(t *testing.T) {
			t.Parallel()
			runCrashSeed(t, int64(seed))
		})
	}
}

func runCrashSeed(t *testing.T, seed int64) {
	ctx := context.Background()
	nodes := 20 + int(seed%3)*8
	maxNodes := nodes + 6
	subset := []int32{0, 3, 5, int32(nodes - 1)}
	cfg := treesvd.DurableConfig{
		Config: treesvd.Config{
			Dim: 4, Branch: 4, Levels: 2,
			MaxNodes: maxNodes, Seed: seed + 1,
		},
		// Checkpoints are taken explicitly, after every 2nd acknowledged
		// batch, so the fault points fall at the same operations every run;
		// each starts a WAL segment, so rotation is on the crash path.
		CheckpointEvery: -1,
	}
	initial, batches := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: nodes, MaxNodes: maxNodes, Degree: 3,
		Batches: 6, BatchSize: 12,
		SelfLoopFrac: 0.1, DeleteFrac: 0.2, DupFrac: 0.1, MissFrac: 0.1, GrowFrac: 0.1,
		BigBatch: -1,
		Protect:  subset,
		Seed:     seed,
	})

	// Ground truth: the embedding after every batch prefix, never persisted.
	shadowEmb, err := treesvd.New(initial.Clone(), subset, cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	shadow := [][][]float64{cloneMat(shadowEmb.Embedding())}
	for i, b := range batches {
		if _, err := shadowEmb.ApplyEvents(ctx, b); err != nil {
			t.Fatalf("shadow batch %d: %v", i, err)
		}
		if err := shadowEmb.Audit(); err != nil {
			t.Fatalf("shadow batch %d: audit: %v", i, err)
		}
		shadow = append(shadow, cloneMat(shadowEmb.Embedding()))
	}

	// Fault plan: the mode and the operation it strikes at both derive from
	// the seed, so a sweep over seeds covers crash/bit-flip/fsync-error
	// points scattered across creates, appends, rotations, and checkpoints.
	modes := []faultfs.Mode{faultfs.Crash, faultfs.Crash, faultfs.BitFlip, faultfs.SyncError}
	plan := faultfs.Plan{
		Mode:         modes[seed%int64(len(modes))],
		FailAt:       1 + int(seed*7)%40,
		DropUnsynced: seed%2 == 1,
	}
	dir := t.TempDir()
	ffs := faultfs.Wrap(wal.OS, plan)

	acked, createFailed := 0, false
	d, err := treesvd.CreateWithFS(ffs, dir, initial.Clone(), subset, cfg)
	if err != nil {
		createFailed = true
	} else {
		for _, b := range batches {
			if _, err := d.ApplyEvents(ctx, b); err != nil {
				break
			}
			acked++
			if err := d.Audit(); err != nil {
				t.Fatalf("seed %d: batch %d: audit: %v", seed, acked-1, err)
			}
			if acked%2 == 0 && d.Checkpoint() != nil {
				break
			}
		}
		// A dying process never runs Close; leak the handle like a crash
		// would. (Close on a poisoned writer would only re-report the fault.)
	}

	// Recovery happens on the pristine filesystem — the fault model is a
	// process death, not a persistently broken disk.
	rec, err := treesvd.Open(dir, cfg)
	if err != nil {
		if createFailed && errors.Is(err, treesvd.ErrNoState) {
			return // the fault struck before Create committed checkpoint 0
		}
		t.Fatalf("seed %d (plan %+v): Open after fault: %v (createFailed=%v)", seed, plan, err, createFailed)
	}
	defer rec.Close()
	if err := rec.Audit(); err != nil {
		t.Fatalf("seed %d: recovered state failed the audit: %v", seed, err)
	}
	info := rec.Recovery()
	prefix := int(info.CheckpointSeq) + info.ReplayedBatches
	if prefix > len(batches) {
		t.Fatalf("seed %d: recovered prefix %d beyond the %d-batch stream", seed, prefix, len(batches))
	}
	// Per-batch fsync durability floor; a silent bit flip may cost
	// acknowledged records (lenient recovery keeps the longest verifiable
	// prefix), every other mode may not.
	if plan.Mode != faultfs.BitFlip && prefix < acked {
		t.Fatalf("seed %d: recovered prefix %d < %d acknowledged batches", seed, prefix, acked)
	}
	requireEqual(t, rec.Embedding(), shadow[prefix], "recovered embedding")

	// The recovered store must pick the stream back up and track the
	// never-crashed shadow for every remaining prefix.
	for i, b := range batches[prefix:] {
		if _, err := rec.ApplyEvents(ctx, b); err != nil {
			t.Fatalf("seed %d: post-recovery batch %d: %v", seed, prefix+i, err)
		}
		if err := rec.Audit(); err != nil {
			t.Fatalf("seed %d: post-recovery batch %d: audit: %v", seed, prefix+i, err)
		}
		requireEqual(t, rec.Embedding(), shadow[prefix+i+1], "post-recovery embedding")
	}
}
