package dataset

import (
	"fmt"
	"math/rand"

	"github.com/tree-svd/treesvd/internal/graph"
)

// ChurnProfile describes an adversarial event stream for the differential
// correctness harness: batches deliberately mixing the edge cases the
// dynamic path must survive — self-loops (including sink transitions),
// duplicate inserts and missing deletes (graph no-ops), node growth up to
// a capacity, and optionally one batch inflated past the incremental
// path's RebuildThreshold. The same profile always produces the same
// stream, so failures reproduce from a seed alone.
type ChurnProfile struct {
	// Nodes is the initial node count; MaxNodes caps growth (ids beyond
	// Nodes arrive via growth events). MaxNodes == Nodes disables growth.
	Nodes, MaxNodes int
	// Degree is the initial out-degree of every node.
	Degree int
	// Batches and BatchSize shape the stream.
	Batches, BatchSize int
	// Event-mix fractions (cumulative weight must stay ≤ 1; the remainder
	// are plain inserts): self-loop events, deletes of existing edges,
	// duplicate inserts, deletes of absent edges, growth events.
	SelfLoopFrac, DeleteFrac, DupFrac, MissFrac, GrowFrac float64
	// BigBatch, when in [0,Batches), inflates that batch to BigBatchSize
	// events — sized by the caller to straddle the rebuild threshold.
	BigBatch, BigBatchSize int
	// Protect lists nodes whose last out-edge is never deleted (subset
	// nodes must stay non-degenerate for fresh rebuilds).
	Protect []int32
	// Seed fixes the stream.
	Seed int64
}

// Validate reports whether the profile is generatable.
func (p ChurnProfile) Validate() error {
	switch {
	case p.Nodes < 2:
		return fmt.Errorf("dataset: churn: %d nodes", p.Nodes)
	case p.MaxNodes < p.Nodes:
		return fmt.Errorf("dataset: churn: MaxNodes %d < Nodes %d", p.MaxNodes, p.Nodes)
	case p.Degree < 1 || p.Degree >= p.Nodes:
		return fmt.Errorf("dataset: churn: degree %d outside [1,%d)", p.Degree, p.Nodes)
	case p.Batches < 1 || p.BatchSize < 1:
		return fmt.Errorf("dataset: churn: %d batches × %d events", p.Batches, p.BatchSize)
	}
	frac := p.SelfLoopFrac + p.DeleteFrac + p.DupFrac + p.MissFrac + p.GrowFrac
	if frac < 0 || frac > 1 ||
		p.SelfLoopFrac < 0 || p.DeleteFrac < 0 || p.DupFrac < 0 || p.MissFrac < 0 || p.GrowFrac < 0 {
		return fmt.Errorf("dataset: churn: event fractions sum to %g", frac)
	}
	for _, v := range p.Protect {
		if v < 0 || int(v) >= p.Nodes {
			return fmt.Errorf("dataset: churn: protected node %d outside initial %d nodes", v, p.Nodes)
		}
	}
	return nil
}

// GenerateChurn materializes the initial graph and the event batches of a
// churn profile. Every event is generated against a live working copy of
// the graph, so deletes hit existing edges, duplicates/missing-deletes
// are genuine no-ops, and growth events extend the id range one node at a
// time — while protected nodes always keep at least one out-edge.
func GenerateChurn(p ChurnProfile) (*graph.Graph, [][]graph.Event) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := graph.New(p.Nodes)
	for v := int32(0); int(v) < p.Nodes; v++ {
		for g.OutDeg(v) < p.Degree {
			u := int32(rng.Intn(p.Nodes))
			if u != v {
				g.InsertEdge(v, u)
			}
		}
	}
	initial := g.Clone()
	protected := make(map[int32]bool, len(p.Protect))
	for _, v := range p.Protect {
		protected[v] = true
	}

	randNode := func() int32 { return int32(rng.Intn(g.NumNodes())) }
	// deletable rejects removals that would strip a protected node's last
	// out-edge; everything else — including creating dangling nodes — is
	// fair game for the harness.
	deletable := func(u, v int32) bool {
		return g.HasEdge(u, v) && !(protected[u] && g.OutDeg(u) == 1)
	}
	randEdge := func() (int32, int32, bool) {
		for try := 0; try < 64; try++ {
			u := randNode()
			if d := g.OutDeg(u); d > 0 {
				v := g.OutNeighbors(u)[rng.Intn(d)]
				return u, v, true
			}
		}
		return 0, 0, false
	}

	// sinkCandidate hunts for the self-loop edge cases that random node
	// picks almost never produce: a dangling node (self-loop insert there
	// is the d: 0→1 sink transition — the transition matrix row does not
	// change) or a node whose self-loop is its last out-edge (deleting it
	// is the reverse d: 1→0 transition).
	sinkCandidate := func() (graph.Event, bool) {
		for u, n := int32(0), int32(g.NumNodes()); u < n; u++ {
			switch g.OutDeg(u) {
			case 0:
				return graph.Event{U: u, V: u, Type: graph.Insert}, true
			case 1:
				// Deleting the last out-edge either IS a sink transition
				// (when the edge is the node's own self-loop) or creates the
				// dangling node a later self-loop insert lands on.
				if v := g.OutNeighbors(u)[0]; deletable(u, v) {
					return graph.Event{U: u, V: v, Type: graph.Delete}, true
				}
			}
		}
		return graph.Event{}, false
	}

	next := func() graph.Event {
		x := rng.Float64()
		switch {
		case x < p.SelfLoopFrac:
			// Half the self-loop budget goes to sink transitions whenever
			// the graph offers one; the rest exercises the d ≥ 1 self-loop
			// corrections on ordinary nodes.
			if rng.Intn(2) == 0 {
				if ev, ok := sinkCandidate(); ok {
					return ev
				}
			}
			u := randNode()
			if g.HasEdge(u, u) && deletable(u, u) {
				return graph.Event{U: u, V: u, Type: graph.Delete}
			}
			return graph.Event{U: u, V: u, Type: graph.Insert}
		case x < p.SelfLoopFrac+p.DeleteFrac:
			if u, v, ok := randEdge(); ok && deletable(u, v) {
				return graph.Event{U: u, V: v, Type: graph.Delete}
			}
		case x < p.SelfLoopFrac+p.DeleteFrac+p.DupFrac:
			if u, v, ok := randEdge(); ok {
				return graph.Event{U: u, V: v, Type: graph.Insert} // duplicate: no-op
			}
		case x < p.SelfLoopFrac+p.DeleteFrac+p.DupFrac+p.MissFrac:
			for try := 0; try < 64; try++ {
				u, v := randNode(), randNode()
				if !g.HasEdge(u, v) {
					return graph.Event{U: u, V: v, Type: graph.Delete} // missing: no-op
				}
			}
		case x < p.SelfLoopFrac+p.DeleteFrac+p.DupFrac+p.MissFrac+p.GrowFrac:
			if n := g.NumNodes(); n < p.MaxNodes {
				// A fresh id arrives with one in- and one out-edge, so the
				// newborn is reachable and non-dangling.
				return graph.Event{U: randNode(), V: int32(n), Type: graph.Insert}
			}
		}
		// Plain insert. A complete graph (all n² pairs, self-loops
		// included) has no pair left, so the event becomes a duplicate
		// insert, a no-op. The check draws nothing from rng: a stream that
		// never saturates is the same stream it always was.
		if n := g.NumNodes(); g.NumEdges() == n*n {
			return graph.Event{U: 0, V: 0, Type: graph.Insert}
		}
		for {
			u, v := randNode(), randNode()
			if !g.HasEdge(u, v) {
				return graph.Event{U: u, V: v, Type: graph.Insert}
			}
		}
	}

	batches := make([][]graph.Event, p.Batches)
	for b := range batches {
		size := p.BatchSize
		if b == p.BigBatch && p.BigBatchSize > 0 {
			size = p.BigBatchSize
		}
		batch := make([]graph.Event, 0, size)
		for len(batch) < size {
			ev := next()
			g.Apply(ev)
			batch = append(batch, ev)
			// Follow a growth event immediately with an out-edge for the
			// newborn so it does not linger dangling across batches.
			if ev.Type == graph.Insert && int(ev.V) == g.NumNodes()-1 && g.OutDeg(ev.V) == 0 && len(batch) < size {
				out := graph.Event{U: ev.V, V: randNode(), Type: graph.Insert}
				if out.U != out.V {
					g.Apply(out)
					batch = append(batch, out)
				}
			}
		}
		batches[b] = batch
	}
	return initial, batches
}
