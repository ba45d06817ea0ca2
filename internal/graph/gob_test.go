package graph

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestGraphGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(30)
	for i := 0; i < 150; i++ {
		g.InsertEdge(int32(rng.Intn(30)), int32(rng.Intn(30)))
	}
	// Some deletions so adjacency order reflects swap-removes.
	for i := 0; i < 20; i++ {
		u := int32(rng.Intn(30))
		if nbrs := g.OutNeighbors(u); len(nbrs) > 1 {
			g.DeleteEdge(u, nbrs[rng.Intn(len(nbrs))])
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		t.Fatal(err)
	}
	g2 := &Graph{}
	if err := gob.NewDecoder(&buf).Decode(g2); err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d nodes, %d/%d edges",
			g2.NumNodes(), g.NumNodes(), g2.NumEdges(), g.NumEdges())
	}
	// Adjacency order must be preserved verbatim in both directions —
	// downstream push queues depend on it for reproducibility.
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		for dir := range []Direction{Forward, Reverse} {
			a, b := g.Neighbors(v, Direction(dir)), g2.Neighbors(v, Direction(dir))
			if len(a) != len(b) {
				t.Fatalf("node %d dir %d degree mismatch", v, dir)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("node %d dir %d adjacency order differs at %d", v, dir, i)
				}
			}
		}
	}
	// Edge set behaves.
	if !g2.HasEdge(g.OutNeighbors(0)[0], 0) && g2.HasEdge(0, g.OutNeighbors(0)[0]) != g.HasEdge(0, g.OutNeighbors(0)[0]) {
		t.Fatal("edge set inconsistent after decode")
	}
	// Mutations still work on the decoded graph.
	before := g2.NumEdges()
	g2.InsertEdge(28, 29)
	if g2.NumEdges() != before+1 && g.HasEdge(28, 29) == false {
		t.Fatal("decoded graph not mutable")
	}
}

// encodeGobGraph encodes a wire form as GobEncode would.
func encodeGobGraph(t testing.TB, w gobGraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGobDecodeRefusesInconsistentAdjacency: in-lists that are not the
// transpose of the out-lists, or a repeated edge, are refused at decode.
// Accepted, the first used to panic at DeleteEdge, which the update
// pipeline does not recover.
func TestGobDecodeRefusesInconsistentAdjacency(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wire    gobGraph
		wantSub string
	}{
		{"in-list lacks an edge", gobGraph{Version: gobGraphVersion, N: 2,
			OutPtr: []int32{0, 1, 1}, OutAdj: []int32{1},
			InPtr: []int32{0, 0, 0}}, "not their transpose"},
		{"in-list names another edge", gobGraph{Version: gobGraphVersion, N: 2,
			OutPtr: []int32{0, 1, 1}, OutAdj: []int32{1},
			InPtr: []int32{0, 1, 1}, InAdj: []int32{1}}, "not their transpose"},
		{"in-list repeats an edge", gobGraph{Version: gobGraphVersion, N: 3,
			OutPtr: []int32{0, 1, 1, 2}, OutAdj: []int32{1, 1},
			InPtr: []int32{0, 0, 2, 2}, InAdj: []int32{0, 0}}, "not their transpose"},
		{"out-list repeats an edge", gobGraph{Version: gobGraphVersion, N: 2,
			OutPtr: []int32{0, 2, 2}, OutAdj: []int32{1, 1},
			InPtr: []int32{0, 0, 2}, InAdj: []int32{0, 0}}, "repeat 1 edges"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := new(Graph).GobDecode(encodeGobGraph(t, tc.wire))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("GobDecode = %v, want an error naming %q", err, tc.wantSub)
			}
		})
	}
}

// FuzzGraphGobDecode feeds arbitrary bytes to Graph.GobDecode. It must
// never panic, and any graph it accepts must delete every one of its
// edges without a panic and end with none.
func FuzzGraphGobDecode(f *testing.F) {
	g := New(6)
	for _, e := range [][2]int32{{0, 1}, {1, 0}, {2, 2}, {3, 1}, {0, 4}, {4, 5}, {5, 0}} {
		g.InsertEdge(e[0], e[1])
	}
	g.DeleteEdge(0, 1)
	clean, err := g.GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(encodeGobGraph(f, gobGraph{Version: gobGraphVersion, N: 2,
		OutPtr: []int32{0, 1, 1}, OutAdj: []int32{1}, InPtr: []int32{0, 0, 0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := g.GobDecode(data); err != nil {
			return
		}
		for u := int32(0); int(u) < g.NumNodes(); u++ {
			for _, v := range slices.Clone(g.OutNeighbors(u)) {
				if !g.DeleteEdge(u, v) {
					t.Fatalf("edge %d→%d of an out-list is not in the edge set", u, v)
				}
			}
		}
		if g.NumEdges() != 0 {
			t.Fatalf("%d edges left after deleting every out-list edge", g.NumEdges())
		}
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			if g.InDeg(v) != 0 {
				t.Fatalf("node %d keeps %d in-neighbours after every edge was deleted", v, g.InDeg(v))
			}
		}
	})
}
