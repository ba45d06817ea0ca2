// Sharding acceptance tests (ISSUE 6): configuration validation, the
// Shards=1 bit-identity guarantee, trajectory parity between shard
// counts, sharded persistence, and the Recommend property — on one and
// on four shards the result must equal the reference ranking of
// (U·Uᵀ·M)[row,:] on the same snapshot, including under concurrent
// updates (-race).
package treesvd

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestShardConfigErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := buildGraph(rng, 30, 90)
	subset := []int32{1, 4, 9, 15}

	var sce *ShardConfigError
	if _, err := New(g, subset, Config{Dim: 4, Shards: -2}); !errors.As(err, &sce) {
		t.Fatalf("Shards=-2: got %v, want *ShardConfigError", err)
	} else if sce.Shards != -2 {
		t.Fatalf("error carries Shards=%d, want -2", sce.Shards)
	}

	sce = nil
	if _, err := New(g, subset, Config{Dim: 4, Shards: 5}); !errors.As(err, &sce) {
		t.Fatalf("Shards=5 over 4 sources: got %v, want *ShardConfigError", err)
	} else if sce.Shards != 5 || sce.Subset != 4 {
		t.Fatalf("error carries Shards=%d Subset=%d, want 5/4", sce.Shards, sce.Subset)
	}

	if d := Defaults(); d.Shards != 1 {
		t.Fatalf("Defaults().Shards = %d, want 1", d.Shards)
	}
	emb := mustTB(New(g, subset, Config{Dim: 4, Shards: 4}))
	if emb.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", emb.NumShards())
	}
}

// shardTrajectory builds one embedder and drives it through the batches,
// recording the public observables after the initial build and after
// every batch.
type shardObs struct {
	frob     float64
	spectrum []float64
	recon    float64
	x        [][]float64
	y        [][]float64
}

func shardTrajectory(t *testing.T, shards int, dim int, delta float64, batches [][]Event) []shardObs {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	g := buildGraph(rng, 60, 240)
	subset := []int32{3, 7, 11, 20, 42, 13, 17, 25, 30, 31, 44, 51}
	emb := mustTB(New(g, subset, Config{Dim: dim, RMax: 1e-3, Delta: delta, Shards: shards}))
	obs := func() shardObs {
		return shardObs{
			frob:     emb.ProximityFrobNorm(),
			spectrum: emb.Snapshot().Spectrum(),
			recon:    emb.ReconstructionError(),
			x:        emb.Embedding(),
			y:        emb.RightEmbedding(),
		}
	}
	out := []shardObs{obs()}
	for i, b := range batches {
		if _, err := emb.ApplyEvents(bgt, b); err != nil {
			t.Fatalf("shards=%d batch %d: %v", shards, i, err)
		}
		if err := emb.Audit(); err != nil {
			t.Fatalf("shards=%d batch %d audit: %v", shards, i, err)
		}
		out = append(out, obs())
	}
	return out
}

func shardTestBatches() [][]Event {
	rng := rand.New(rand.NewSource(99))
	batches := make([][]Event, 5)
	for i := range batches {
		batches[i] = insertBatch(rng, 60, 30)
	}
	return batches
}

// TestShardsOneBitIdentical pins the compatibility guarantee: Shards
// unset (0) and Shards=1 are the same pipeline, bit for bit, along a
// whole update trajectory.
func TestShardsOneBitIdentical(t *testing.T) {
	batches := shardTestBatches()
	a := shardTrajectory(t, 0, 8, 0, batches)
	b := shardTrajectory(t, 1, 8, 0, batches)
	for i := range a {
		if a[i].frob != b[i].frob {
			t.Fatalf("step %d: frob %g vs %g", i, a[i].frob, b[i].frob)
		}
		if !equalRows([][]float64{a[i].spectrum}, [][]float64{b[i].spectrum}) {
			t.Fatalf("step %d: spectra differ", i)
		}
		if !equalRows(a[i].x, b[i].x) || !equalRows(a[i].y, b[i].y) {
			t.Fatalf("step %d: embeddings differ bitwise", i)
		}
	}
}

// TestShardedTrajectoryParity is the differential leg across shard
// counts. The PPR maintenance is per-source and deterministic, so the
// proximity Frobenius norm must agree to summation-order roundoff
// between Shards=1 and Shards=3 after every batch (the sharded norm is
// √(Σ‖M_i‖²), a different reduction order over bitwise-identical rows).
// The factorizations differ (per-shard truncation), but Weyl's
// inequality bounds the spectra: each reported spectrum is within its
// own reconstruction error of the true proximity spectrum, so
// corresponding singular values can differ by at most the sum of the
// two reconstruction errors.
func TestShardedTrajectoryParity(t *testing.T) {
	batches := shardTestBatches()
	frobClose := func(t *testing.T, step int, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > 1e-12*(1+a) {
			t.Fatalf("step %d: frob %g (1 shard) vs %g (3 shards)", step, a, b)
		}
	}

	// Dim=12 (= |S|: no truncation, so at every step the bound degenerates
	// to float roundoff and pins the merge as exact) and Dim=4 (truncated
	// everywhere). The Weyl argument needs both reported spectra to be
	// fresh — the default lazy δ deliberately serves a stale Σ within its
	// drift budget, so these trajectories run with a near-zero δ that
	// forces every upper-level rebuild.
	for _, dim := range []int{12, 4} {
		one := shardTrajectory(t, 1, dim, 1e-12, batches)
		three := shardTrajectory(t, 3, dim, 1e-12, batches)
		for i := range one {
			frobClose(t, i, one[i].frob, three[i].frob)
			bound := one[i].recon + three[i].recon + 1e-8*(1+one[i].frob)
			for j := range one[i].spectrum {
				if d := math.Abs(one[i].spectrum[j] - three[i].spectrum[j]); d > bound {
					t.Fatalf("dim %d step %d: σ_%d differs by %g, Weyl bound %g",
						dim, i, j, d, bound)
				}
			}
		}
	}
}

// TestShardedSaveLoadRoundTrip persists a 3-shard embedder mid-stream,
// reloads it, and checks both the restored observables and that the
// restored pipeline continues the trajectory identically.
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := buildGraph(rng, 60, 240)
	subset := []int32{3, 7, 11, 20, 42, 13, 17, 25, 30, 31, 44, 51}
	batches := shardTestBatches()
	emb := mustTB(New(g, subset, Config{Dim: 6, RMax: 1e-3, Shards: 3}))
	for _, b := range batches[:3] {
		mustTB(emb.ApplyEvents(bgt, b))
	}

	var buf bytes.Buffer
	must0tb(emb.Save(&buf))
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 3 {
		t.Fatalf("loaded NumShards = %d, want 3", loaded.NumShards())
	}
	requireMatClose(t, loaded.Embedding(), emb.Embedding(), "restored embedding")
	requireMatClose(t, loaded.RightEmbedding(), emb.RightEmbedding(), "restored right embedding")
	requireMatClose(t, [][]float64{loaded.Snapshot().Spectrum()},
		[][]float64{emb.Snapshot().Spectrum()}, "restored spectrum")
	if err := loaded.Audit(); err != nil {
		t.Fatalf("restored audit: %v", err)
	}

	// Both must continue identically (same persisted state, same events).
	for i, b := range batches[3:] {
		mustTB(emb.ApplyEvents(bgt, b))
		mustTB(loaded.ApplyEvents(bgt, b))
		if got, want := loaded.ProximityFrobNorm(), emb.ProximityFrobNorm(); got != want {
			t.Fatalf("post-load batch %d: frob %g, want %g", i, got, want)
		}
		requireMatClose(t, loaded.Embedding(), emb.Embedding(), "post-load embedding")
	}
}

// referenceScores is the specification of Recommend's score row,
// (U·Uᵀ·M)[row, :], accumulated in Recommend's own row order from
// Embedding-independent inputs: the snapshot's (merged) root and its
// frozen CSR parts.
func referenceScores(snap *Snapshot, row int) []float64 {
	root := snap.rootSVD()
	scores := make([]float64, snap.parts[0].m.Cols)
	for _, p := range snap.parts {
		for i := 0; i < p.m.Rows; i++ {
			var w float64
			for j, sigma := range root.S {
				if sigma > 0 {
					w += root.U.At(row, j) * root.U.At(p.lo+i, j)
				}
			}
			for q := p.m.RowPtr[i]; q < p.m.RowPtr[i+1]; q++ {
				scores[p.m.ColIdx[q]] += w * p.m.Val[q]
			}
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

// TestScatterGatherRecommendProperty is the Recommend property test: on
// unsharded and sharded snapshots alike, the result of scattering wᵀM
// over the frozen CSR rows and gathering the top k must equal the
// specification (checkRecommend) while ApplyEvents runs concurrently
// underneath. Run under -race via `make race`.
func TestScatterGatherRecommendProperty(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			const n = 90
			g := buildGraph(rng, n, 360)
			subset := []int32{2, 5, 9, 14, 23, 31, 47, 58, 66, 71}
			emb := mustTB(New(g, subset, Config{Dim: 8, RMax: 1e-3, Workers: 2, Shards: shards}))

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
}
