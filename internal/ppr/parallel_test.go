package ppr

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
)

// TestParallelSubsetMatchesSequential: worker count must not change any
// state (per-source work is independent and deterministic).
func TestParallelSubsetMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g1 := randGraph(rng, 60, 240)
	g2 := g1.Clone()
	s := []int32{1, 5, 9, 13, 17, 21}
	seq := mustPPR(NewSubset(g1, s, Params{Alpha: 0.15, RMax: 1e-3}))
	parl := mustPPR(NewSubset(g2, s, Params{Alpha: 0.15, RMax: 1e-3, Workers: 4}))

	compare := func(label string) {
		t.Helper()
		for i := range s {
			for _, pair := range [][2]*State{{seq.Fwd[i], parl.Fwd[i]}, {seq.Rev[i], parl.Rev[i]}} {
				ap, ar := content(pair[0])
				bp, br := content(pair[1])
				if len(ap) != len(bp) || len(ar) != len(br) {
					t.Fatalf("%s: state %d size mismatch", label, i)
				}
				for v, x := range ap {
					if math.Abs(bp[v]-x) > 1e-12 {
						t.Fatalf("%s: P mismatch at source %d node %d", label, i, v)
					}
				}
				for v, x := range ar {
					if math.Abs(br[v]-x) > 1e-12 {
						t.Fatalf("%s: R mismatch at source %d node %d", label, i, v)
					}
				}
			}
		}
	}
	compare("initial build")

	var events []graph.Event
	for len(events) < 50 {
		u, v := int32(rng.Intn(60)), int32(rng.Intn(60))
		if u != v {
			events = append(events, graph.Event{U: u, V: v, Type: graph.Insert})
		}
	}
	must0t(seq.ApplyEvents(bgt, events))
	must0t(parl.ApplyEvents(bgt, events))
	compare("after events")
}

func TestRebuildThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := randGraph(rng, 20, 60)
	sp := mustPPR(NewSubset(g, []int32{0}, Params{Alpha: 0.2, RMax: 1e-2}))
	if sp.RebuildThreshold(50) {
		t.Fatal("small batch should not trigger rebuild")
	}
	if !sp.RebuildThreshold(200) {
		t.Fatal("batch beyond 1/rmax should trigger rebuild")
	}
}
