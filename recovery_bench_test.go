// Recovery benchmarks: `go test -bench` entry points for profiling the
// durable wrapper's cost centers — the save a checkpoint captures and the
// load a recovery starts from, both at the system benchmark's shape, one
// synchronous checkpoint commit, ApplyEvents through the WAL (its
// per-batch fsync overlapped with the apply), and cold-start Open as a
// function of WAL length. The system benchmark (benchmark/, workload
// durable-trickle) is what measures them end to end.
package treesvd

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/tree-svd/treesvd/internal/dataset"
)

// saveBenchEmbedder is the system benchmark's shape after its trickle
// warm-up: 8 000 nodes growing toward 9 000, 128 subset nodes, d = 16,
// r_max = 1e-3, after 120 four-event churn batches.
func saveBenchEmbedder(b *testing.B) *Embedder {
	const nodes = 8000
	subset := make([]int32, 128)
	for i, v := range rand.New(rand.NewSource(1)).Perm(nodes)[:len(subset)] {
		subset[i] = int32(v)
	}
	slices.Sort(subset)
	g, batches := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: nodes, MaxNodes: 9000, Degree: 5,
		Batches: 120, BatchSize: 4,
		DeleteFrac: 0.2, GrowFrac: 0.02, BigBatch: -1,
		Protect: subset, Seed: 1,
	})
	cfg := Defaults()
	cfg.Dim, cfg.RMax, cfg.MaxNodes, cfg.Workers = 16, 1e-3, 9000, 2
	emb := mustTB(New(g, subset, cfg))
	for _, ev := range batches {
		mustTB(emb.ApplyEvents(bgt, ev))
	}
	return emb
}

// BenchmarkSave times the save a checkpoint captures under the update
// lock (saveBytes, the bytes Save writes), at the system benchmark's
// shape; save-bytes is its size.
func BenchmarkSave(b *testing.B) {
	emb := saveBenchEmbedder(b)
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = len(mustTB(emb.saveBytes()))
	}
	b.ReportMetric(float64(n), "save-bytes")
}

// BenchmarkLoad times Load of that save: decode, structural checks and
// the invariant audit a recovery runs before its WAL replay.
func BenchmarkLoad(b *testing.B) {
	data := mustTB(saveBenchEmbedder(b).saveBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustTB(Load(bytes.NewReader(data), 2))
	}
	b.ReportMetric(float64(len(data)), "save-bytes")
}

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
