package treesvd

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// insertBatch pre-generates a batch of insert events so reader goroutines
// never have to touch the (writer-owned) graph.
func insertBatch(rng *rand.Rand, n, size int) []Event {
	events := make([]Event, 0, size)
	for len(events) < size {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			events = append(events, Event{U: u, V: v, Type: Insert})
		}
	}
	return events
}

func equalRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestSnapshotStressRace races ≥8 concurrent readers against a writer
// applying event batches. Run with -race: the readers exercise Snapshot,
// Embedding, RightEmbedding, Recommend, Version, Metrics, Degraded and
// Save while ApplyEvents mutates the pipeline underneath, and each reader
// checks that the versions it observes never go backwards. It runs on an
// embedder in memory and on a durable store checkpointing every 2nd
// batch, whose background checkpoints overlap the writer.
func TestSnapshotStressRace(t *testing.T) {
	const n = 80
	subset := []int32{2, 5, 9, 14, 23, 31, 47, 58, 66, 71}
	cfg := Config{Dim: 8, RMax: 1e-3, Workers: 2}
	for name, start := range map[string]func(*Graph) (*Embedder, error){
		"memory": func(g *Graph) (*Embedder, error) { return New(g, subset, cfg) },
		"logged": func(g *Graph) (*Embedder, error) {
			return Create(t.TempDir(), g, subset, DurableConfig{Config: cfg, CheckpointEvery: 2})
		},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(40))
			emb := mustTB(start(buildGraph(rng, n, 320)))
			defer func() { must0tb(emb.Close()) }()
			batches := make([][]Event, 6)
			for i := range batches {
				batches[i] = insertBatch(rng, n, 25)
			}
			snapshotStress(t, emb, n, batches)
		})
	}
}

// snapshotStress is TestSnapshotStressRace on one embedder over an
// n-node graph.
func snapshotStress(t *testing.T, emb *Embedder, n int, batches [][]Event) {
	subset := emb.Subset()
	const readers = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src := subset[r%len(subset)]
			var prev uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := emb.Snapshot()
				if v := snap.Version(); v < prev {
					fail(errors.New("snapshot version went backwards"))
					return
				} else {
					prev = v
				}
				if x := snap.Embedding(); len(x) != len(subset) || len(x[0]) != 8 {
					fail(errors.New("bad embedding shape"))
					return
				}
				if y := snap.RightEmbedding(); len(y) != n {
					fail(errors.New("bad right embedding shape"))
					return
				}
				recs, err := snap.Recommend(src, 5)
				if err != nil {
					fail(err)
					return
				}
				for i := 1; i < len(recs); i++ {
					if recs[i].Score > recs[i-1].Score {
						fail(errors.New("recommendations not sorted by descending score"))
						return
					}
				}
				if m := emb.Metrics(); (m.WAL != nil) != (emb.log != nil) {
					fail(errors.New("Metrics().WAL present without a log, or missing with one"))
					return
				}
				if err := emb.Degraded(); err != nil {
					fail(err)
					return
				}
				if err := emb.Save(io.Discard); err != nil {
					fail(err)
					return
				}
			}
		}(r)
	}

	prev := emb.Version()
	for _, batch := range batches {
		if _, err := emb.ApplyEvents(bgt, batch); err != nil {
			close(done)
			wg.Wait()
			t.Fatal(err)
		}
		if v := emb.Version(); v != prev+1 {
			close(done)
			wg.Wait()
			t.Fatalf("writer saw version %d after update, want %d", v, prev+1)
		} else {
			prev = v
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestOldSnapshotUnchanged pins a snapshot, pushes the embedder through
// updates that change the published embedding, and verifies the pinned
// version still serves exactly the same numbers.
func TestOldSnapshotUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 50
	g := buildGraph(rng, n, 200)
	subset := []int32{1, 2, 3, 4, 5, 6}
	// Tiny Delta forces eager re-factorization so the update really
	// changes the published embedding.
	emb := mustTB(New(g, subset, Config{Dim: 8, RMax: 1e-3, Delta: 1e-12}))

	old := emb.Snapshot()
	oldX := old.Embedding()
	oldY := old.RightEmbedding()
	oldRecs := mustTB(old.Recommend(3, 5))

	for i := 0; i < 3; i++ {
		mustTB(emb.ApplyEvents(bgt, insertBatch(rng, n, 30)))
	}
	if emb.Version() != old.Version()+3 {
		t.Fatalf("version %d after 3 updates from %d", emb.Version(), old.Version())
	}
	if equalRows(emb.Embedding(), oldX) {
		t.Fatal("test premise broken: updates did not change the live embedding")
	}

	if !equalRows(old.Embedding(), oldX) {
		t.Fatal("old snapshot's Embedding changed after updates")
	}
	if !equalRows(old.RightEmbedding(), oldY) {
		t.Fatal("old snapshot's RightEmbedding changed after updates")
	}
	recs := mustTB(old.Recommend(3, 5))
	if len(recs) != len(oldRecs) {
		t.Fatal("old snapshot's Recommend changed after updates")
	}
	for i := range recs {
		if recs[i] != oldRecs[i] {
			t.Fatalf("old snapshot's Recommend changed at %d: %+v vs %+v", i, recs[i], oldRecs[i])
		}
	}
}

// cancelAfter is a Context whose Err flips to Canceled after a fixed
// number of polls — it cancels an update deterministically *mid-flight*
// (the top-of-call check passes, a later worker-pool check fails).
type cancelAfter struct {
	context.Context
	calls atomic.Int32
	after int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelledUpdateKeepsSnapshot cancels ApplyEvents mid-update and
// checks the published snapshot is untouched and fully readable, then
// verifies the embedder recovers on the next un-cancelled call.
func TestCancelledUpdateKeepsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 40
	g := buildGraph(rng, n, 160)
	subset := []int32{1, 3, 5, 7, 9}
	// Workers:1 keeps the pool sequential so the cancellation point is
	// deterministic.
	emb := mustTB(New(g, subset, Config{Dim: 8, RMax: 1e-3, Workers: 1}))

	before := emb.Snapshot()
	beforeX := before.Embedding()

	ctx := &cancelAfter{Context: context.Background(), after: 1}
	if _, err := emb.ApplyEvents(ctx, insertBatch(rng, n, 20)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	if emb.Snapshot() != before {
		t.Fatal("cancelled update replaced the published snapshot")
	}
	if emb.Version() != before.Version() {
		t.Fatal("cancelled update bumped the version")
	}
	if !equalRows(emb.Embedding(), beforeX) {
		t.Fatal("cancelled update changed the readable embedding")
	}
	if _, err := emb.Recommend(3, 4); err != nil {
		t.Fatalf("Recommend after cancelled update: %v", err)
	}

	// Recovery: the next successful call rebuilds from scratch (the graph
	// advanced past the estimates) and publishes a fresh snapshot.
	if _, err := emb.ApplyEvents(bgt, insertBatch(rng, n, 10)); err != nil {
		t.Fatal(err)
	}
	if emb.Version() != before.Version()+1 {
		t.Fatalf("version %d after recovery, want %d", emb.Version(), before.Version()+1)
	}

	// Same contract for Rebuild.
	mid := emb.Snapshot()
	ctx = &cancelAfter{Context: context.Background(), after: 1}
	if err := emb.Rebuild(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Rebuild: got %v, want context.Canceled", err)
	}
	if emb.Snapshot() != mid {
		t.Fatal("cancelled Rebuild replaced the published snapshot")
	}
	if err := emb.Rebuild(bgt); err != nil {
		t.Fatal(err)
	}
	if emb.Version() != mid.Version()+1 {
		t.Fatal("successful Rebuild after cancellation did not publish")
	}
}

// TestRightEmbeddingComputedOncePerSnapshot hammers one snapshot's
// RightEmbedding and Recommend from many goroutines and checks Y was
// materialized exactly once: the first RightEmbedding pays the O(nnz·d)
// Theorem 3.2 recovery, every later one reuses the cached Y, and
// Recommend neither builds nor waits for it.
func TestRightEmbeddingComputedOncePerSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := buildGraph(rng, 60, 240)
	subset := []int32{2, 4, 6, 8, 10, 12}
	emb := mustTB(New(g, subset, Config{Dim: 8, RMax: 1e-3}))

	snap := emb.Snapshot()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				_ = snap.RightEmbedding()
				if _, err := snap.Recommend(subset[r%len(subset)], 5); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got := snap.yComputes.Load(); got != 1 {
		t.Fatalf("right embedding materialized %d times on one snapshot, want 1", got)
	}

	// A new snapshot starts cold and pays the materialization again.
	mustTB(emb.ApplyEvents(bgt, insertBatch(rng, 60, 10)))
	next := emb.Snapshot()
	if next == snap {
		t.Fatal("update did not publish a new snapshot")
	}
	if next.yComputes.Load() != 0 {
		t.Fatal("fresh snapshot claims a materialized right embedding")
	}
	_ = next.RightEmbedding()
	if next.yComputes.Load() != 1 {
		t.Fatal("fresh snapshot did not materialize exactly once")
	}
}
