// Recommend scores from the frozen proximity matrix (ISSUE 14): no read
// materializes the right embedding, the result equals the reference
// ranking of (U·Uᵀ·M)[row,:] on the same snapshot — on hand-made edge
// cases and under concurrent updates (-race) — and the fresh/warm
// benchmarks on both sides of the nnz(M) = n·d crossover (DESIGN.md §5).
package treesvd

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// TestRecommendNeverMaterializesY: any number of Recommend calls, on
// fresh snapshots, leave the right embedding unbuilt; the first
// RightEmbedding builds it, once, and changes no Recommend result.
func TestRecommendNeverMaterializesY(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := buildGraph(rng, 60, 240)
	subset := []int32{2, 4, 6, 8, 10, 12}
	emb := mustTB(New(g, subset, Config{Dim: 8, RMax: 1e-3}))
	for batch := 0; batch < 3; batch++ {
		snap := emb.Snapshot()
		var before [][]Recommendation
		for _, src := range subset {
			before = append(before, mustTB(snap.Recommend(src, 7)))
			mustTB(snap.Recommend(src, 60))
		}
		if got := snap.yComputes.Load(); got != 0 {
			t.Fatalf("Recommend materialized the right embedding %d times", got)
		}
		snap.RightEmbedding()
		snap.RightEmbedding()
		if got := snap.yComputes.Load(); got != 1 {
			t.Fatalf("right embedding materialized %d times, want 1", got)
		}
		for i, src := range subset {
			if after := mustTB(snap.Recommend(src, 7)); !slices.Equal(after, before[i]) {
				t.Fatalf("Recommend(%d) changed after RightEmbedding:\n%v\n%v", src, before[i], after)
			}
		}
		mustTB(emb.ApplyEvents(bgt, insertBatch(rng, 60, 10)))
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

// handSnapshot is a snapshot over hand-made factors: subset node i is
// graph node i, nothing but the source is excluded.
func handSnapshot(u *linalg.Dense, sigma []float64, m *sparse.CSR, numNodes int) *Snapshot {
	root := &linalg.SVDResult{U: u, S: sigma}
	snap := &Snapshot{
		rowOf: map[int32]int{}, root: root, x: root.USqrtS(), m: m, numNodes: numNodes,
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
	u := linalg.SVDW(dense, 1).U // orthonormal columns

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
	rng := rand.New(rand.NewSource(77))
	g := buildGraph(rng, 120, 480)
	subset := []int32{3, 8, 15, 29, 41, 57, 66, 90}
	emb := mustTB(New(g, subset, Config{Dim: 8, RMax: 1e-3, Workers: 2}))
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
					t.Errorf("source %d, call %d: %v (err %v), want %v", subset[r], iter, got, err, want[r])
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// referenceScores is the specification of Recommend's score row,
// (U·Uᵀ·M)[row, :], accumulated in Recommend's own row order from
// Embedding-independent inputs: the snapshot's root and its frozen CSR.
func referenceScores(snap *Snapshot, row int) []float64 {
	root, m := snap.root, snap.m
	scores := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		var w float64
		for j, sigma := range root.S {
			if sigma > 0 {
				w += root.U.At(row, j) * root.U.At(i, j)
			}
		}
		for q := m.RowPtr[i]; q < m.RowPtr[i+1]; q++ {
			scores[m.ColIdx[q]] += w * m.Val[q]
		}
	}
	return scores
}

// bruteRecommend is the specification of Recommend: the reference scores
// of the nodes that exist, minus the source's frozen exclusion list, fully
// sorted by (score desc, node asc) and truncated to k.
func bruteRecommend(snap *Snapshot, src int32, k int) []Recommendation {
	row := snap.rowOf[src]
	scores := referenceScores(snap, row)
	return bruteTopK(scores[:min(len(scores), snap.numNodes)],
		snap.excluded[snap.excludedOff[row]:snap.excludedOff[row+1]], k)
}

// checkRecommend compares one Recommend answer with the specification:
// it equals the brute-force ranking of the reference scores exactly —
// nodes, scores, tie order — and every score is within rounding of
// dot(X[s], Y[v]) from the public Embedding/RightEmbedding.
func checkRecommend(snap *Snapshot, src int32, k int) error {
	got, err := snap.Recommend(src, k)
	if err != nil {
		return err
	}
	want := bruteRecommend(snap, src, k)
	if !slices.Equal(got, want) {
		return fmt.Errorf("Recommend(%d, %d) = %v, reference ranking %v", src, k, got, want)
	}
	xs := snap.Embedding()[snap.rowOf[src]]
	y := snap.RightEmbedding()
	for _, rec := range got {
		if xy := dot(xs, y[rec.Node]); math.Abs(rec.Score-xy) > 1e-12*(1+math.Abs(xy)) {
			return fmt.Errorf("Recommend(%d, %d): node %d scores %g, dot(X[s], Y[v]) = %g", src, k, rec.Node, rec.Score, xy)
		}
	}
	return nil
}

// TestScatterGatherRecommendProperty is the Recommend property test: the
// result of scattering wᵀM over the frozen CSR rows and gathering the top
// k must equal the specification (checkRecommend) while ApplyEvents runs
// concurrently underneath. Run under -race via `make race`. The one leg
// left of the former 1-and-4-shard pair sets the retired Shards 1, which
// still means one tree.
func TestScatterGatherRecommendProperty(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		const n = 90
		g := buildGraph(rng, n, 360)
		subset := []int32{2, 5, 9, 14, 23, 31, 47, 58, 66, 71}
		emb := mustTB(New(g, subset, Config{Dim: 8, RMax: 1e-3, Workers: 2, Shards: 1}))

		batches := make([][]Event, 6)
		for i := range batches {
			batches[i] = insertBatch(rng, n, 25)
		}

		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				src := subset[r%len(subset)]
				for {
					select {
					case <-done:
						return
					default:
					}
					snap := emb.Snapshot()
					for _, k := range []int{1, 3, 10, n} {
						if err := checkRecommend(snap, src, k); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(r)
		}
		for _, b := range batches {
			if _, err := emb.ApplyEvents(bgt, b); err != nil {
				t.Error(err)
				break
			}
		}
		close(done)
		wg.Wait()
	})
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
	return emb, float64(emb.Snapshot().m.NNZ()) / float64(n*16)
}

// BenchmarkRecommendFresh measures the first Recommend on a snapshot —
// each iteration re-publishes. There is no cold mode: it costs what
// BenchmarkRecommendWarm does, plus cache misses. cpu-us/op is the
// process's CPU time inside the timed reads; its two reads sit in the
// timed window.
func BenchmarkRecommendFresh(b *testing.B) {
	for _, shape := range []string{"sparse", "dense"} {
		b.Run(shape, func(b *testing.B) {
			emb, fill := recommendBenchSnapshot(b, shape)
			var cpu time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				emb.mu.Lock()
				emb.publishLocked()
				emb.mu.Unlock()
				snap := emb.Snapshot()
				b.StartTimer()
				cpu0 := cpuTime(b)
				mustTB(snap.Recommend(7, 10))
				cpu += cpuTime(b) - cpu0
			}
			b.ReportMetric(cpu.Seconds()*1e6/float64(b.N), "cpu-us/op")
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
