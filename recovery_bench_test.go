// Recovery benchmarks: `go test -bench` entry points for profiling the
// durable wrapper's three cost centers — one synchronous checkpoint
// commit, ApplyEvents through the WAL (its per-batch fsync overlapped with
// the apply), and cold-start Open as a function of WAL length. The system benchmark
// (benchmark/, workload durable-trickle) is what measures them end to end.
package treesvd

import (
	"fmt"
	"testing"

	"github.com/tree-svd/treesvd/internal/dataset"
)

// recoveryBenchStream builds the benchmarks' workload: a mid-size churn
// stream whose batches carry real update work (PPR pushes plus occasional
// block re-factorizations).
func recoveryBenchStream(nbatches int) (*Graph, []int32, [][]Event, Config) {
	subset := []int32{0, 7, 19, 42, 77, 123, 256, 391, 477, 512}
	initial, batches := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: 600, MaxNodes: 620, Degree: 5,
		Batches: nbatches, BatchSize: 512,
		SelfLoopFrac: 0.05, DeleteFrac: 0.2, DupFrac: 0.05, MissFrac: 0.05, GrowFrac: 0.05,
		BigBatch: -1,
		Protect:  subset,
		Seed:     7,
	})
	cfg := Config{Dim: 16, Branch: 4, Levels: 3, MaxNodes: 620, Seed: 3}
	return initial, subset, batches, cfg
}

func BenchmarkCheckpoint(b *testing.B) {
	initial, subset, batches, cfg := recoveryBenchStream(8)
	d, err := Create(b.TempDir(), initial, subset, DurableConfig{Config: cfg, CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for _, batch := range batches {
		if _, err := d.ApplyEvents(bgt, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDurableApply(b *testing.B) {
	initial, subset, batches, cfg := recoveryBenchStream(16)
	d, err := Create(b.TempDir(), initial, subset, DurableConfig{Config: cfg, CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ApplyEvents(bgt, batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenReplay(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("wal%d", n), func(b *testing.B) {
			initial, subset, batches, cfg := recoveryBenchStream(n)
			dcfg := DurableConfig{Config: cfg, CheckpointEvery: -1}
			dir := b.TempDir()
			d, err := Create(dir, initial, subset, dcfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, batch := range batches {
				if _, err := d.ApplyEvents(bgt, batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := Open(dir, dcfg)
				if err != nil {
					b.Fatal(err)
				}
				if got := d.Recovery().ReplayedBatches; got != n {
					b.Fatalf("replayed %d batches, want %d", got, n)
				}
				d.Close()
			}
		})
	}
}
