package ppr

import (
	"bytes"
	"encoding/gob"
	"maps"
	"math/rand"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
)

// TestStateGobRoundTripBehaviour: a saved+loaded state must evolve
// identically to the original under the same events.
func TestStateGobRoundTripBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGraph(rng, 50, 200)
	params := Params{Alpha: 0.15, RMax: 1e-3}
	e := mustPPR(NewEngine(g, params))
	st := NewState(4, graph.Forward)
	e.Push(st)
	// Some churn so the state is mid-life.
	for i := 0; i < 20; i++ {
		u, v := int32(rng.Intn(50)), int32(rng.Intn(50))
		if u != v && g.InsertEdge(u, v) {
			e.AdjustEvent(st, graph.Event{U: u, V: v, Type: graph.Insert})
		}
	}
	e.Push(st)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	st2 := &State{}
	if err := gob.NewDecoder(&buf).Decode(st2); err != nil {
		t.Fatal(err)
	}

	// Same future: identical adjustments and pushes.
	g2 := g // shared graph; apply events once, adjust both states
	for i := 0; i < 30; i++ {
		u, v := int32(rng.Intn(50)), int32(rng.Intn(50))
		if u != v && g2.InsertEdge(u, v) {
			e.AdjustEvent(st, graph.Event{U: u, V: v, Type: graph.Insert})
			e.AdjustEvent(st2, graph.Event{U: u, V: v, Type: graph.Insert})
		}
	}
	e.Push(st)
	e.Push(st2)
	p, r := content(st)
	p2, r2 := content(st2)
	if !maps.Equal(p, p2) || !maps.Equal(r, r2) {
		t.Fatalf("states diverge: P %d/%d R %d/%d keys", len(p), len(p2), len(r), len(r2))
	}
}
