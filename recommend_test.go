// Recommend scores from the frozen proximity matrix (ISSUE 14): no read
// materializes the right embedding, the edge cases of the score row
// against the reference in shard_test.go, and the fresh/warm benchmarks
// on both sides of the nnz(M) = n·d crossover (DESIGN.md §5).
package treesvd

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// TestRecommendNeverMaterializesY: any number of Recommend calls, on
// fresh snapshots of both shapes, leave the right embedding unbuilt; the
// first RightEmbedding builds it, once, and changes no Recommend result.
func TestRecommendNeverMaterializesY(t *testing.T) {
	for _, shards := range []int{1, 3} {
		rng := rand.New(rand.NewSource(5))
		g := buildGraph(rng, 60, 240)
		subset := []int32{2, 4, 6, 8, 10, 12}
		emb := mustTB(New(g, subset, Config{Dim: 8, RMax: 1e-3, Shards: shards}))
		for batch := 0; batch < 3; batch++ {
			snap := emb.Snapshot()
			var before [][]Recommendation
			for _, src := range subset {
				before = append(before, mustTB(snap.Recommend(src, 7)))
				mustTB(snap.Recommend(src, 60))
			}
			if got := snap.yComputes.Load(); got != 0 {
				t.Fatalf("shards=%d: Recommend materialized the right embedding %d times", shards, got)
			}
			snap.RightEmbedding()
			snap.RightEmbedding()
			if got := snap.yComputes.Load(); got != 1 {
				t.Fatalf("shards=%d: right embedding materialized %d times, want 1", shards, got)
			}
			for i, src := range subset {
				if after := mustTB(snap.Recommend(src, 7)); !slices.Equal(after, before[i]) {
					t.Fatalf("shards=%d: Recommend(%d) changed after RightEmbedding:\n%v\n%v", shards, src, before[i], after)
				}
			}
			mustTB(emb.ApplyEvents(bgt, insertBatch(rng, 60, 10)))
		}
	}
}

// TestRecommendOversizedK: a k beyond the candidate set truncates, up to
// math.MaxInt (which used to size the heap and panic).
func TestRecommendOversizedK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := buildGraph(rng, 40, 160)
	subset := []int32{1, 5, 9}
	emb := mustTB(New(g, subset, Config{Dim: 4, RMax: 1e-3, MaxNodes: 64}))
	snap := emb.Snapshot()
	row := snap.rowOf[5]
	excluded := int(snap.excludedOff[row+1] - snap.excludedOff[row])
	for _, k := range []int{40, 1 << 40, math.MaxInt} {
		recs := mustTB(snap.Recommend(5, k))
		if want := 40 - excluded; len(recs) != want {
			t.Fatalf("k=%d: %d candidates, want every one of %d", k, len(recs), want)
		}
		if err := checkRecommend(snap, 5, k); err != nil {
			t.Fatal(err)
		}
	}
}

// handSnapshot is an unsharded snapshot over hand-made factors: subset
// node i is graph node i, nothing but the source is excluded.
func handSnapshot(u *linalg.Dense, sigma []float64, m *sparse.CSR, numNodes int) *Snapshot {
	root := &linalg.SVDResult{U: u, S: sigma}
	snap := &Snapshot{
		rowOf: map[int32]int{}, root: root, x: root.USqrtS(), numNodes: numNodes,
		parts:       []snapPart{{root: root, m: m, lo: 0, hi: u.Rows}},
		excludedOff: []int32{0},
	}
	for i := 0; i < u.Rows; i++ {
		snap.subset = append(snap.subset, int32(i))
		snap.rowOf[int32(i)] = i
		snap.excluded = append(snap.excluded, int32(i))
		snap.excludedOff = append(snap.excludedOff, int32(i+1))
	}
	return snap
}

// TestRecommendEdgeCases drives the score row through its corners on
// hand-made factors, each against the reference ranking and against
// dot(X[s], Y[v]).
func TestRecommendEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const rows, cols = 5, 12
	b := sparse.NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.5 {
				b.Add(i, j, rng.Float64())
			}
		}
	}
	m := b.Build()
	dense := linalg.NewDense(rows, 3)
	for i := range dense.Data {
		dense.Data[i] = rng.NormFloat64()
	}
	u := linalg.SVD(dense).U // orthonormal columns

	t.Run("zero singular value", func(t *testing.T) {
		snap := handSnapshot(u, []float64{2, 1, 0}, m, cols)
		for src := int32(0); src < rows; src++ {
			if err := checkRecommend(snap, src, cols); err != nil {
				t.Fatal(err)
			}
		}
		// The σ = 0 direction must not leak into the scores.
		full := handSnapshot(u, []float64{2, 1, 1e-9}, m, cols)
		if slices.Equal(mustTB(snap.Recommend(0, cols)), mustTB(full.Recommend(0, cols))) {
			t.Fatal("scores ignore whether the third direction is live")
		}
	})

	t.Run("rank 0", func(t *testing.T) {
		snap := handSnapshot(linalg.NewDense(rows, 0), nil, m, cols)
		if _, err := snap.Recommend(0, 3); err == nil || !strings.Contains(err.Error(), "empty factorization") {
			t.Fatalf("rank-0 factorization: got %v, want the empty-factorization error", err)
		}
	})

	t.Run("no ghost ids", func(t *testing.T) {
		const numNodes = 8 // the last four columns are MaxNodes headroom
		snap := handSnapshot(u, []float64{2, 1, 0.5}, m, numNodes)
		if err := checkRecommend(snap, 1, cols); err != nil {
			t.Fatal(err)
		}
		recs := mustTB(snap.Recommend(1, math.MaxInt))
		if len(recs) != numNodes-1 {
			t.Fatalf("%d candidates over %d nodes", len(recs), numNodes)
		}
		for _, r := range recs {
			if int(r.Node) >= numNodes {
				t.Fatalf("ghost node %d recommended", r.Node)
			}
		}
	})

	t.Run("all-zero w", func(t *testing.T) {
		uz := u.Clone()
		clear(uz.Row(2)) // source 2 has no component in any direction
		snap := handSnapshot(uz, []float64{2, 1, 0.5}, m, cols)
		if err := checkRecommend(snap, 2, cols); err != nil {
			t.Fatal(err)
		}
		for i, r := range mustTB(snap.Recommend(2, 4)) {
			if want := []int32{0, 1, 3, 4}[i]; r.Score != 0 || r.Node != want {
				t.Fatalf("rank %d: %+v, want node %d at score 0", i, r, want)
			}
		}
	})
}

// TestRecommendConcurrentReadersBitIdentical: readers of different
// sources, sharing one snapshot and the score-row pool, each get on
// every call exactly what a lone reader got — the pooled buffer is
// cleared per read and never shared. Run under -race via `make race`.
func TestRecommendConcurrentReadersBitIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		rng := rand.New(rand.NewSource(77))
		g := buildGraph(rng, 120, 480)
		subset := []int32{3, 8, 15, 29, 41, 57, 66, 90}
		emb := mustTB(New(g, subset, Config{Dim: 8, RMax: 1e-3, Workers: 2, Shards: shards}))
		snap := emb.Snapshot()
		want := make([][]Recommendation, len(subset))
		for i, src := range subset {
			want[i] = mustTB(snap.Recommend(src, 20))
		}
		var wg sync.WaitGroup
		for r := range subset {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for iter := 0; iter < 200; iter++ {
					got, err := snap.Recommend(subset[r], 20)
					if err != nil || !slices.Equal(got, want[r]) {
						t.Errorf("shards=%d source %d, call %d: %v (err %v), want %v", shards, subset[r], iter, got, err, want[r])
						return
					}
				}
			}(r)
		}
		wg.Wait()
	}
}

// recommendBenchSnapshot publishes a snapshot on one side of Recommend's
// crossover and reports where: fill = nnz(M)/(n·d), the mean number of
// stored entries of a proximity column over the dimension. "sparse" is the
// subset regime the system is built for (the benchmark's shape scaled
// down, fill ≈ 0.1); "dense" is a small graph under a fine r_max, where M
// holds more numbers than the right embedding would (fill ≈ 1.3).
func recommendBenchSnapshot(b *testing.B, shape string) (emb *Embedder, fill float64) {
	b.Helper()
	n, edges, sources, rmax := 4000, 16000, 48, 1e-3
	if shape == "dense" {
		n, edges, rmax = 1500, 6000, 2e-4
	}
	g := buildGraph(rand.New(rand.NewSource(44)), n, edges)
	subset := make([]int32, sources)
	for i := range subset {
		subset[i] = int32(i * 7)
	}
	emb = mustTB(New(g, subset, Config{Dim: 16, RMax: rmax}))
	return emb, float64(emb.Snapshot().parts[0].m.NNZ()) / float64(n*16)
}

// BenchmarkRecommendFresh measures the first Recommend on a snapshot —
// each iteration re-publishes. There is no cold mode: it costs what
// BenchmarkRecommendWarm does, plus cache misses.
func BenchmarkRecommendFresh(b *testing.B) {
	for _, shape := range []string{"sparse", "dense"} {
		b.Run(shape, func(b *testing.B) {
			emb, fill := recommendBenchSnapshot(b, shape)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				emb.mu.Lock()
				emb.publishLocked()
				emb.mu.Unlock()
				snap := emb.Snapshot()
				b.StartTimer()
				mustTB(snap.Recommend(7, 10))
			}
			b.ReportMetric(fill, "fill")
		})
	}
}

// BenchmarkRecommendWarm measures Recommend on a snapshot that has
// already served reads.
func BenchmarkRecommendWarm(b *testing.B) {
	for _, shape := range []string{"sparse", "dense"} {
		b.Run(shape, func(b *testing.B) {
			emb, fill := recommendBenchSnapshot(b, shape)
			snap := emb.Snapshot()
			mustTB(snap.Recommend(7, 10))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustTB(snap.Recommend(7, 10))
			}
			b.ReportMetric(fill, "fill")
		})
	}
}
