// Command serve runs the treesvd HTTP service (package server) around one
// embedder: snapshot-isolated reads (/v1/recommend, /v1/embedding,
// /v1/rightembedding, /v1/version; JSON, or binary frames on request),
// streaming ingest of binary event frames (/v1/events), plus /metrics
// (Prometheus text) and /debug/pprof on the same listener. The embedder
// comes from a state file written by `treesvd -save` (resume serving
// exactly where a build left off) or, with -synthetic, from a generated
// random graph, so the service can be tried with no state file at hand.
//
// Usage:
//
//	serve -load state.bin -addr :8080
//	serve -synthetic -nodes 20000 -edges 120000 -subset 256 -dim 32
//
// SIGINT/SIGTERM trigger a graceful shutdown: /readyz flips to 503,
// the listener closes, then in-flight requests drain (bounded by
// -shutdown-timeout) before the process exits. If the listener dies on
// its own (port stolen, fd exhaustion) the process exits non-zero
// instead of lingering as a zombie that answers nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (host:port, \":0\" picks a port)")
		loadFrom  = flag.String("load", "", "state file written by `treesvd -save` to serve")
		synthetic = flag.Bool("synthetic", false, "serve a generated random graph instead of -load")
		nodes     = flag.Int("nodes", 10000, "synthetic: initial node count")
		edges     = flag.Int("edges", 60000, "synthetic: initial edge count")
		subset    = flag.Int("subset", 256, "synthetic: subset size |S|")
		dim       = flag.Int("dim", 32, "synthetic: embedding dimension d")
		rmax      = flag.Float64("rmax", 1e-3, "synthetic: Forward-Push threshold")
		workers   = flag.Int("workers", 0, "worker pool size (0 = sequential), for -load and -synthetic")
		maxNodes  = flag.Int("maxnodes", 0, "synthetic: node capacity headroom (0 = 2x initial)")
		seed      = flag.Int64("seed", 1, "synthetic: graph + subset seed")
		batchCap  = flag.Int("batchcap", 0, "max events per ingest batch (0 = server default)")
		drain     = flag.Duration("shutdown-timeout", 15*time.Second, "graceful-shutdown drain budget")
	)
	flag.Parse()

	var emb *treesvd.Embedder
	var err error
	switch {
	case *loadFrom != "":
		emb, err = treesvd.LoadFile(*loadFrom, *workers)
		if err != nil {
			fail(err)
		}
	case *synthetic:
		emb, err = buildSynthetic(*nodes, *edges, *subset, *dim, *rmax, *workers, *maxNodes, *seed)
		if err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "serve: need -load <state> or -synthetic")
		os.Exit(2)
	}
	snap := emb.Snapshot()
	fmt.Printf("serve: embedder ready: %d nodes, %d edges, |S|=%d, version %d\n",
		snap.NumNodes(), snap.NumEdges(), len(snap.Subset()), snap.Version())

	srv := server.New(emb, server.Options{MaxBatchEvents: *batchCap})
	if err := srv.Start(*addr); err != nil {
		fail(err)
	}
	fmt.Printf("serve: listening on http://%s (endpoints: /v1/..., /metrics, /debug/pprof)\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("serve: %v: readiness ready -> draining, shedding new work (up to %v)\n", s, *drain)
	case <-srv.ServeDone():
		// The accept loop died without being asked to — surface the
		// cause and exit non-zero so supervisors restart us.
		if err := srv.ServeErr(); err != nil {
			fail(fmt.Errorf("listener failed: %w", err))
		}
		fail(fmt.Errorf("listener closed unexpectedly"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fail(err)
	}
	if err := srv.ServeErr(); err != nil {
		fail(fmt.Errorf("serve: %w", err))
	}
	fmt.Println("serve: drained, bye")
}

// buildSynthetic generates a connected-ish random graph and embeds a
// sampled subset, mirroring the cmd/treesvd bootstrap but self-contained.
// Every node gets an out-edge to another node, then random directed edges
// (self-loops included) are added until the graph has the requested
// count. With fewer than two nodes or more edges than the nodes² directed
// pairs neither loop can finish, so those shapes are rejected up front.
func buildSynthetic(nodes, edges, subsetSize, dim int, rmax float64, workers, maxNodes int, seed int64) (*treesvd.Embedder, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("-nodes %d: need at least 2", nodes)
	}
	if edges > nodes*nodes {
		return nil, fmt.Errorf("-edges %d: %d nodes hold at most %d directed edges", edges, nodes, nodes*nodes)
	}
	rng := rand.New(rand.NewSource(seed))
	g := treesvd.NewGraphN(nodes)
	for v := int32(0); int(v) < nodes; v++ {
		for {
			u := int32(rng.Intn(nodes))
			if u != v && g.InsertEdge(v, u) {
				break
			}
		}
	}
	for g.NumEdges() < edges {
		g.InsertEdge(int32(rng.Intn(nodes)), int32(rng.Intn(nodes)))
	}
	subset := make([]int32, 0, subsetSize)
	perm := rng.Perm(nodes)
	for _, v := range perm {
		if len(subset) == subsetSize {
			break
		}
		subset = append(subset, int32(v))
	}
	cfg := treesvd.Defaults()
	cfg.Dim = dim
	cfg.RMax = rmax
	cfg.Workers = workers
	cfg.Seed = seed
	if maxNodes <= 0 {
		maxNodes = 2 * nodes
	}
	cfg.MaxNodes = maxNodes
	return treesvd.New(g, subset, cfg)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
