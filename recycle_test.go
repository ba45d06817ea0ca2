package treesvd

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// TestRecycledMatrixUnderReaders hammers the embedder's own read methods
// (Recommend, Embedding, RightEmbedding) from four goroutines while a
// writer applies trickle batches, each of whose publishes writes into the
// matrix of the snapshot before last when no read pins it. Under -race a
// publish that wrote into a matrix a read still held is a reported race.
// Some publishes must have recycled, or the test checked nothing.
func TestRecycledMatrixUnderReaders(t *testing.T) {
	g, subset, batches, cfg := trickleStream(150, -1)
	e := mustTB(New(g, subset, cfg))
	const readers = 4
	done := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				recs, err := e.Recommend(subset[(r*31+i)%len(subset)], 10)
				if err == nil && (len(recs) != 10 || !slices.IsSortedFunc(recs, func(a, b Recommendation) int {
					return -cmpScore(a.Score, b.Score)
				})) {
					err = fmt.Errorf("Recommend returned %d candidates, or out of order: %v", len(recs), recs)
				}
				switch {
				case err != nil:
				case i%4 == 1:
					if x := e.Embedding(); len(x) != len(subset) {
						err = fmt.Errorf("embedding has %d rows, want %d", len(x), len(subset))
					}
				case i%16 == 2:
					if y := e.RightEmbedding(); len(y) != cfg.MaxNodes {
						err = fmt.Errorf("right embedding has %d rows, want %d", len(y), cfg.MaxNodes)
					}
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	seen := map[*float64]bool{}
	recycled := 0
	for i, b := range batches {
		if _, err := e.ApplyEvents(bgt, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		val := unsafe.SliceData(e.snap.Load().m.Val) // no pin: only the address is read
		if seen[val] {
			recycled++
		}
		seen[val] = true
	}
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if recycled == 0 {
		t.Fatalf("none of %d publishes recycled a retired matrix", len(batches))
	}
	t.Logf("%d of %d publishes recycled a retired matrix", recycled, len(batches))
}

func cmpScore(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// TestHeldSnapshotSurvivesPublishes holds a snapshot from Snapshot across
// 200 trickle batches: it is pinned for life, so no publish may recycle
// its matrix, and its Recommend for every subset node and its
// RightEmbedding, first computed after the batches, must equal bit for
// bit what its matrix gave before them.
func TestHeldSnapshotSurvivesPublishes(t *testing.T) {
	g, subset, batches, cfg := trickleStream(201, -1)
	e := mustTB(New(g, subset, cfg))
	mustTB(e.ApplyEvents(bgt, batches[0]))
	snap := e.Snapshot()
	m := snap.m
	copied := &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: slices.Clone(m.RowPtr),
		ColIdx: slices.Clone(m.ColIdx), Val: slices.Clone(m.Val)}
	wantRight := toRows(core.RightEmbeddingOf(snap.root, copied))
	wantRecs := make([][]Recommendation, len(subset))
	for i, src := range subset {
		wantRecs[i] = mustTB(snap.Recommend(src, 10))
	}
	for i, b := range batches[1:] {
		if _, err := e.ApplyEvents(bgt, b); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
	for i, src := range subset {
		got := mustTB(snap.Recommend(src, 10))
		if !slices.EqualFunc(got, wantRecs[i], func(a, b Recommendation) bool {
			return a.Node == b.Node && math.Float64bits(a.Score) == math.Float64bits(b.Score)
		}) {
			t.Fatalf("Recommend(%d) on the held snapshot changed across 200 publishes:\n got %v\nwant %v", src, got, wantRecs[i])
		}
	}
	got := snap.RightEmbedding()
	for v := range wantRight {
		if !slices.EqualFunc(got[v], wantRight[v], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("right embedding row %d of the held snapshot changed across 200 publishes", v)
		}
	}
}

// TestTrickleBatchAllocation bounds the bytes one 4-event batch and one
// read allocate at the system benchmark's shape, so that a publish which
// stops recycling its matrix (≈220 KB of arrays, zeroed and discarded a
// batch) fails here.
func TestTrickleBatchAllocation(t *testing.T) {
	const warm, measured, bound = 20, 100, 120 << 10
	g, subset, batches, cfg := trickleStream(warm+measured, -1)
	e := mustTB(New(g, subset, cfg))
	step := func(i int) {
		mustTB(e.ApplyEvents(bgt, batches[i]))
		mustTB(e.Recommend(subset[i%len(subset)], 10))
	}
	for i := range warm {
		step(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+measured; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / measured
	if per > bound {
		t.Fatalf("a trickle batch allocates %d KB, want at most %d KB", per>>10, bound>>10)
	}
	t.Logf("a trickle batch allocates %d KB (nnz %d)", per>>10, e.snap.Load().m.NNZ())
}
