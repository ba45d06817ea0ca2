package treesvd_test

import (
	"context"
	"fmt"
	"os"

	treesvd "github.com/tree-svd/treesvd"
)

// Build a small deterministic graph: a ring with chords so every node has
// out-degree ≥ 2.
func ringGraph(n int32) *treesvd.Graph {
	g := treesvd.NewGraphN(int(n))
	for v := int32(0); v < n; v++ {
		g.InsertEdge(v, (v+1)%n)
		g.InsertEdge(v, (v+3)%n)
	}
	return g
}

func ExampleNew() {
	g := ringGraph(32)
	emb, err := treesvd.New(g, []int32{0, 8, 16, 24}, treesvd.Config{Dim: 4})
	if err != nil {
		panic(err)
	}
	x := emb.Embedding()
	fmt.Printf("%d nodes embedded into %d dimensions\n", len(x), len(x[0]))
	// Output: 4 nodes embedded into 4 dimensions
}

func ExampleEmbedder_ApplyEvents() {
	g := ringGraph(32)
	emb, err := treesvd.New(g, []int32{0, 8}, treesvd.Config{Dim: 4})
	if err != nil {
		panic(err)
	}
	// Insert a batch of chords; the factorization refreshes lazily.
	var events []treesvd.Event
	for v := int32(0); v < 32; v++ {
		events = append(events, treesvd.Event{U: v, V: (v + 7) % 32, Type: treesvd.Insert})
	}
	emb.ApplyEvents(context.Background(), events)
	st := emb.LastStats()
	fmt.Printf("cached+rebuilt blocks = %d\n", st.Skipped+st.Level1Rebuilt)
	// Output: cached+rebuilt blocks = 32
}

func ExampleFactorizeMatrix() {
	// Rank-1 matrix: ones everywhere in a 2×6 shape → σ₁ = √12.
	m := treesvd.NewSparseMatrix(2, 6)
	for i := 0; i < 2; i++ {
		for j := 0; j < 6; j++ {
			m.Set(i, j, 1)
		}
	}
	res, err := treesvd.FactorizeMatrix(m, treesvd.Config{Dim: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("rank %d, σ₁² = %.0f\n", res.Rank(), res.S[0]*res.S[0])
	// Output: rank 1, σ₁² = 12
}

func ExampleEmbedder_Recommend() {
	g := ringGraph(32)
	emb, err := treesvd.New(g, []int32{0}, treesvd.Config{Dim: 4})
	if err != nil {
		panic(err)
	}
	recs, err := emb.Recommend(0, 3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d candidates, none already linked: %v\n",
		len(recs),
		!g.HasEdge(0, recs[0].Node) && !g.HasEdge(0, recs[1].Node) && !g.HasEdge(0, recs[2].Node))
	// Output: 3 candidates, none already linked: true
}

func ExampleEmbedder_Metrics() {
	g := ringGraph(32)
	emb, err := treesvd.New(g, []int32{0, 8, 16, 24}, treesvd.Config{Dim: 4})
	if err != nil {
		panic(err)
	}
	for round := int32(0); round < 3; round++ {
		var events []treesvd.Event
		for v := int32(0); v < 32; v++ {
			events = append(events, treesvd.Event{U: v, V: (v + 9 + round) % 32, Type: treesvd.Insert})
		}
		if _, err := emb.ApplyEvents(context.Background(), events); err != nil {
			panic(err)
		}
	}
	m := emb.Metrics()
	fmt.Printf("batches=%d events=%d builds=%d snapshots=%d pushes>0=%t\n",
		m.BatchesApplied, m.EventsApplied, m.TreeBuilds, m.SnapshotsPublished, m.Pushes > 0)
	// Output: batches=3 events=96 builds=1 snapshots=4 pushes>0=true
}

func ExampleEmbedder_SetTraceHook() {
	g := ringGraph(32)
	emb, err := treesvd.New(g, []int32{0, 8}, treesvd.Config{Dim: 4})
	if err != nil {
		panic(err)
	}
	// The hook runs inline on pipeline goroutines; keep it cheap.
	var starts, ends int
	emb.SetTraceHook(func(ev treesvd.TraceEvent) {
		switch ev.Kind {
		case treesvd.TraceBatchStart:
			starts++
		case treesvd.TraceBatchEnd:
			ends++
		}
	})
	for round := int32(0); round < 2; round++ {
		events := []treesvd.Event{{U: round, V: 16 + round, Type: treesvd.Insert}}
		if _, err := emb.ApplyEvents(context.Background(), events); err != nil {
			panic(err)
		}
	}
	emb.SetTraceHook(nil) // detach; later batches fire no events
	fmt.Printf("starts=%d ends=%d\n", starts, ends)
	// Output: starts=2 ends=2
}

func ExampleCreate() {
	dir, err := os.MkdirTemp("", "treesvd-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	// CheckpointEvery -1 turns the periodic background checkpoint off:
	// checkpoints happen only when Checkpoint is called.
	cfg := treesvd.DurableConfig{Config: treesvd.Config{Dim: 4, MaxNodes: 40}, CheckpointEvery: -1}
	d, err := treesvd.Create(dir, ringGraph(32), []int32{0, 8, 16, 24}, cfg)
	if err != nil {
		panic(err)
	}
	for v := int32(0); v < 3; v++ {
		// Each batch is fsynced to the write-ahead log before it applies.
		if _, err := d.ApplyEvents(context.Background(), []treesvd.Event{{U: v, V: 32 + v, Type: treesvd.Insert}}); err != nil {
			panic(err)
		}
		if v == 1 {
			if err := d.Checkpoint(); err != nil {
				panic(err)
			}
		}
	}
	if err := d.Close(); err != nil {
		panic(err)
	}

	// Open restores the newest checkpoint and replays the log past it.
	d, err = treesvd.Open(dir, cfg)
	if err != nil {
		panic(err)
	}
	defer d.Close()
	info := d.Recovery()
	fmt.Printf("checkpoint after batch %d, %d batch replayed, %d edges\n",
		info.CheckpointSeq, info.ReplayedBatches, d.Snapshot().NumEdges())
	// Output: checkpoint after batch 2, 1 batch replayed, 67 edges
}
