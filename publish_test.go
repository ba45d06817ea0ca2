package treesvd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// publishStream is the system benchmark's shape (8 000 nodes growing
// toward 9 000, degree 5, |S| = 128, 4-event batches) with batch 40
// inflated past RebuildThreshold (1/r_max = 1 000 events at r_max 1e-3),
// so one batch takes the ApplyAll path.
func publishStream() (*Graph, []int32, [][]Event, Config) { return trickleStream(120, 40) }

// trickleStream is that shape's stream of n 4-event batches, batch big
// inflated to 1 200 events (none when big is -1).
func trickleStream(n, big int) (*Graph, []int32, [][]Event, Config) {
	const nodes = 8000
	subset := make([]int32, 128)
	for i, v := range rand.New(rand.NewSource(1)).Perm(nodes)[:len(subset)] {
		subset[i] = int32(v)
	}
	slices.Sort(subset)
	g, batches := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: nodes, MaxNodes: 9000, Degree: 5,
		Batches: n, BatchSize: 4,
		DeleteFrac: 0.2, GrowFrac: 0.02, BigBatch: big, BigBatchSize: 1200,
		Protect: subset, Seed: 1,
	})
	cfg := Defaults()
	cfg.Dim, cfg.RMax, cfg.MaxNodes, cfg.Workers = 16, 1e-3, 9000, 2
	return g, subset, batches, cfg
}

// checkPublished holds e's current snapshot to what a publish from
// scratch freezes: exclusion lists equal to a fresh exclusionLists, X
// equal to root.USqrtS() bit for bit, and a proximity matrix equal to a
// full gather (the first ToCSR of a decoded copy of the live matrix).
func checkPublished(t *testing.T, e *Embedder, label string) {
	t.Helper()
	snap := e.Snapshot()
	excluded, off := exclusionLists(e.g, e.subset)
	if !slices.Equal(snap.excluded, excluded) || !slices.Equal(snap.excludedOff, off) {
		t.Fatalf("%s: exclusion lists differ from the graph's", label)
	}
	x := snap.root.USqrtS()
	if snap.x.Rows != x.Rows || snap.x.Cols != x.Cols ||
		!slices.EqualFunc(snap.x.Data, x.Data, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: X differs from root.USqrtS()", label)
	}
	fresh, err := sparse.DecodeDynRow(e.prox.M.AppendEncoded(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.m, fresh.ToCSR()) {
		t.Fatalf("%s: frozen proximity matrix differs from a full gather", label)
	}
}

// publishTally counts what each publish of a stream shared with its
// predecessor.
type publishTally struct {
	fromSubset, sharedLists, triggered, sharedX int
}

// applyChecked applies batch to e and checks the snapshot it
// publishes: it matches a publish from scratch, a batch with no event out
// of a subset node shares its predecessor's exclusion arrays, and a batch
// that re-factored nothing shares its X.
func (tl *publishTally) applyChecked(t *testing.T, e *Embedder, batch []Event, label string) {
	t.Helper()
	prev := e.Snapshot()
	rebuilt, err := e.ApplyEvents(bgt, batch)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkPublished(t, e, label)
	snap := e.Snapshot()
	fromSubset := slices.ContainsFunc(batch, func(ev Event) bool { _, ok := e.rowOf[ev.U]; return ok })
	sameLists := &snap.excluded[0] == &prev.excluded[0] && &snap.excludedOff[0] == &prev.excludedOff[0]
	switch {
	case fromSubset:
		tl.fromSubset++
	case !sameLists:
		t.Fatalf("%s: no event left a subset node, but the exclusion lists were rebuilt", label)
	default:
		tl.sharedLists++
	}
	switch {
	case rebuilt > 0:
		tl.triggered++
	case snap.x != prev.x || snap.root != prev.root:
		t.Fatalf("%s: nothing was re-factored, but X was not shared", label)
	default:
		tl.sharedX++
	}
}

// TestPublishSharesWhatNothingMoved drives the benchmark's stream through
// an embedder, then through a durable store reopened mid-stream, whose
// WAL replay folds batches without a publish barrier (no snapshot).
func TestPublishSharesWhatNothingMoved(t *testing.T) {
	g, subset, batches, cfg := publishStream()
	t.Run("in-memory", func(t *testing.T) {
		e := mustTB(New(g.Clone(), subset, cfg))
		checkPublished(t, e, "build")
		var tl publishTally
		for i, b := range batches {
			tl.applyChecked(t, e, b, fmt.Sprint("batch ", i))
		}
		if tl.fromSubset == 0 || tl.sharedLists == 0 || tl.triggered == 0 || tl.sharedX == 0 {
			t.Fatalf("stream does not cover every case: %+v", tl)
		}
		t.Logf("%+v over %d batches", tl, len(batches))
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		dcfg := DurableConfig{Config: cfg, CheckpointEvery: -1}
		d := mustTB(Create(dir, g.Clone(), subset, dcfg))
		const replayed = 60 // the big batch included
		for i, b := range batches[:replayed] {
			if _, err := d.ApplyEvents(bgt, b); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		must0tb(d.Close())
		d = mustTB(Open(dir, dcfg))
		defer d.Close()
		if got := d.Recovery().ReplayedBatches; got != replayed {
			t.Fatalf("replayed %d batches, want %d", got, replayed)
		}
		checkPublished(t, d, "open")
		var tl publishTally
		for i, b := range batches[replayed:] {
			tl.applyChecked(t, d, b, fmt.Sprint("batch ", replayed+i))
		}
		if tl.sharedLists == 0 || tl.sharedX == 0 {
			t.Fatalf("no publish after the reopen shared anything: %+v", tl)
		}
	})
}
