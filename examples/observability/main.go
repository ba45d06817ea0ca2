// Observability: operate a dynamic embedder with eyes open. The example
// streams a synthetic social graph through a durable embedder while
//
//   - a TraceHook prints one line per batch, checkpoint and block
//     recompute burst,
//   - the metric registry is served on http://localhost:8077/metrics
//     (expvar JSON; add ?format=prometheus for the Prometheus text form),
//   - and at the end the programmatic Metrics() view is dumped, mapping
//     each counter back to the paper's cost terms.
//
// While it runs, try:
//
//	curl localhost:8077/metrics
//	curl 'localhost:8077/metrics?format=prometheus'
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/dataset"
)

func main() {
	ds := dataset.Generate(dataset.ScaleProfile(dataset.YouTube(), 0.3))
	stream := ds.Stream
	g := stream.BuildSnapshot(1)
	subset := ds.SampleSubset(1, 80, 7)

	cfg := treesvd.Defaults()
	cfg.Dim = 16
	cfg.MaxNodes = stream.NumNodes

	// The trace hook runs inline on pipeline goroutines — including the
	// factorization workers — so it only bumps counters and prints the
	// cheap per-batch lines.
	var recomputes atomic.Int64
	trace := func(ev treesvd.TraceEvent) {
		switch ev.Kind {
		case treesvd.TraceBlockRecompute:
			recomputes.Add(1)
		case treesvd.TraceBatchEnd:
			fmt.Printf("  batch %d: %d events, %d blocks re-factored (%d recompute events), %v\n",
				ev.Seq, ev.Events, ev.Rebuilt, recomputes.Swap(0), ev.Dur.Round(time.Millisecond))
		case treesvd.TraceCheckpoint:
			fmt.Printf("  checkpoint @batch %d committed in %v\n", ev.Seq, ev.Dur.Round(time.Millisecond))
		case treesvd.TraceRecovery:
			fmt.Printf("  recovered from checkpoint %d, %d batches replayed\n", ev.Seq, ev.Rebuilt)
		}
	}

	dir, err := os.MkdirTemp("", "treesvd-obs-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	d, err := treesvd.Create(dir, g, subset, treesvd.DurableConfig{
		Config:          cfg,
		CheckpointEvery: 3,
		SyncCheckpoints: true,
		Trace:           trace,
	})
	if err != nil {
		panic(err)
	}
	defer d.Close()

	// One line mounts the metrics endpoint; both the durable wrapper and
	// the plain Embedder expose the same registry. ListenAndServe only
	// returns on failure (e.g. the port is taken) — swallowing that error
	// would silently serve nothing, so fail loudly instead.
	go func() {
		if err := http.ListenAndServe("localhost:8077", d.MetricsRegistry()); err != nil {
			fmt.Fprintln(os.Stderr, "metrics endpoint:", err)
			os.Exit(1)
		}
	}()
	fmt.Println("metrics on http://localhost:8077/metrics — streaming snapshots:")

	for t := 2; t <= stream.NumSnapshots(); t++ {
		if _, err := d.ApplyEvents(context.Background(), stream.SnapshotEvents(t)); err != nil {
			panic(err)
		}
	}

	m := d.Metrics()
	fmt.Println("\ncumulative metrics (the Theorem 3.7 cost terms, observed):")
	fmt.Printf("  PPR: %d pushes, %d adjusts over %d repaired states (of %d per batch), %d source rebuilds\n",
		m.Pushes, m.Adjusts, m.StatesRepaired, 2*len(subset), m.SourceRebuilds)
	fmt.Printf("  tree: %d builds, %d updates; blocks %d rebuilt / %d skipped (skip rate %.0f%%); %d upper merges\n",
		m.TreeBuilds, m.TreeUpdates, m.BlocksRebuilt, m.BlocksSkipped,
		100*float64(m.BlocksSkipped)/float64(m.BlocksRebuilt+m.BlocksSkipped), m.UpperMerges)
	fmt.Printf("  timing: block factor p50 %v, tree pass p50 %v, batch p50 %v\n",
		m.BlockFactor.P50.Round(time.Microsecond), m.TreePass.P50.Round(time.Microsecond),
		m.Batch.P50.Round(time.Microsecond))
	fmt.Printf("  pool: %d hits / %d misses; snapshot age %v\n",
		m.PoolHits, m.PoolMisses, m.SnapshotAge.Round(time.Millisecond))
	fmt.Printf("  WAL: %d appends (%d bytes), %d fsyncs (p50 %v), %d checkpoints\n",
		m.WAL.Appends, m.WAL.AppendedBytes, m.WAL.Fsyncs,
		m.WAL.Fsync.P50.Round(time.Microsecond), m.WAL.Checkpoints)
}
