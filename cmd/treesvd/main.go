// Command treesvd embeds a node subset of a dynamic graph given as an
// event stream (the format of cmd/datagen / graph.WriteEvents) and writes
// the embedding per snapshot. It demonstrates the dynamic pipeline: the
// first snapshot is a full build, every further snapshot an incremental
// lazy update.
//
// Usage:
//
//	treesvd -events patent.events -subset 300 -dim 32 -out emb
//
// writes emb.snapshot<t>.tsv with one "node v_1 … v_d" row per subset
// node, and prints per-snapshot maintenance statistics.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/graph"
)

func main() {
	var (
		events     = flag.String("events", "", "event-stream file (required)")
		subsetSize = flag.Int("subset", 100, "subset size |S| (sampled from snapshot 1)")
		dim        = flag.Int("dim", 32, "embedding dimension d")
		rmax       = flag.Float64("rmax", 1e-4, "Forward-Push threshold")
		alpha      = flag.Float64("alpha", 0.15, "PPR decay factor")
		delta      = flag.Float64("delta", 0.65, "lazy-update threshold δ")
		seed       = flag.Int64("seed", 1, "subset sampling seed")
		out        = flag.String("out", "", "output prefix (omit to skip writing embeddings)")
		saveTo     = flag.String("save", "", "write the final maintenance state to this file")
		loadFrom   = flag.String("load", "", "resume from a state file written by -save (skips the initial build)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = sequential), with or without -load")
	)
	flag.Parse()
	if *events == "" {
		fmt.Fprintln(os.Stderr, "treesvd: -events is required")
		os.Exit(2)
	}
	f, err := os.Open(*events)
	if err != nil {
		fail(err)
	}
	stream, err := graph.ReadEvents(bufio.NewReader(f))
	f.Close()
	if err != nil {
		fail(err)
	}
	if stream.NumSnapshots() == 0 {
		fail(fmt.Errorf("stream has no snapshots"))
	}

	var emb *treesvd.Embedder
	var subset []int32
	if *loadFrom != "" {
		emb, err = treesvd.LoadFile(*loadFrom, *workers)
		if err != nil {
			fail(err)
		}
		subset = emb.Subset()
		snap := emb.Snapshot()
		fmt.Printf("resumed state: %d nodes, %d edges, |S|=%d\n", snap.NumNodes(), snap.NumEdges(), len(subset))
	} else {
		g := stream.BuildSnapshot(1)
		subset = sampleSubset(g, *subsetSize, *seed)
		fmt.Printf("graph: %d nodes, %d edges at snapshot 1; |S|=%d\n", g.NumNodes(), g.NumEdges(), len(subset))

		cfg := treesvd.Defaults()
		cfg.Dim = *dim
		cfg.RMax = *rmax
		cfg.Alpha = *alpha
		cfg.Delta = *delta
		cfg.MaxNodes = stream.NumNodes
		cfg.Workers = *workers

		t0 := time.Now()
		var err error
		emb, err = treesvd.New(g, subset, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("snapshot 1: full build in %v\n", time.Since(t0).Round(time.Millisecond))
		writeSnapshot(*out, 1, subset, emb.Embedding())
	}

	for t := 2; t <= stream.NumSnapshots(); t++ {
		batch := stream.SnapshotEvents(t)
		t0 := time.Now()
		rebuilt, err := emb.ApplyEvents(context.Background(), batch)
		if err != nil {
			fail(err)
		}
		st := emb.LastStats()
		fmt.Printf("snapshot %d: %d events, update in %v (blocks rebuilt %d, cached %d)\n",
			t, len(batch), time.Since(t0).Round(time.Millisecond), rebuilt, st.Skipped)
		writeSnapshot(*out, t, subset, emb.Embedding())
	}
	if *saveTo != "" {
		// SaveFile publishes atomically: a crash mid-save leaves any
		// previous state file intact instead of a torn one.
		if err := emb.SaveFile(*saveTo); err != nil {
			fail(err)
		}
		fmt.Printf("state saved to %s\n", *saveTo)
	}
}

// sampleSubset picks nodes with out-edges, deterministically.
func sampleSubset(g *treesvd.Graph, size int, seed int64) []int32 {
	var candidates []int32
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if g.OutDeg(v) > 0 {
			candidates = append(candidates, v)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(candidates), func(a, b int) { candidates[a], candidates[b] = candidates[b], candidates[a] })
	if size > len(candidates) {
		size = len(candidates)
	}
	return candidates[:size]
}

func writeSnapshot(prefix string, t int, subset []int32, x [][]float64) {
	if prefix == "" {
		return
	}
	path := fmt.Sprintf("%s.snapshot%d.tsv", prefix, t)
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i, v := range subset {
		fmt.Fprintf(w, "%d", v)
		for _, x := range x[i] {
			fmt.Fprintf(w, "\t%.6g", x)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "treesvd:", err)
	os.Exit(1)
}
