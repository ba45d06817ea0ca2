package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/column"
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
	data := g.AppendEncoded(nil)
	if len(data) != g.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(data), g.EncodedLen())
	}
	g2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g2.AppendEncoded(nil), data) {
		t.Fatal("decode then encode is not the identity")
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

// encodeFlat lays a flattened adjacency out as AppendEncoded does.
func encodeFlat(w flatAdj) []byte {
	b := column.AppendUint32(nil, uint32(w.N))
	for _, col := range [][]int32{w.OutPtr, w.OutAdj, w.InPtr, w.InAdj} {
		b = column.AppendInt32s(b, col)
	}
	return b
}

// TestGobDecodeRefusesInconsistentAdjacency: in-lists that are not the
// transpose of the out-lists, or a repeated edge, are refused at decode.
// Accepted, the first used to panic at DeleteEdge, which the update
// pipeline does not recover.
func TestGobDecodeRefusesInconsistentAdjacency(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wire    flatAdj
		wantSub string
	}{
		{"in-list lacks an edge", flatAdj{N: 2,
			OutPtr: []int32{0, 1, 1}, OutAdj: []int32{1},
			InPtr: []int32{0, 0, 0}}, "not their transpose"},
		{"in-list names another edge", flatAdj{N: 2,
			OutPtr: []int32{0, 1, 1}, OutAdj: []int32{1},
			InPtr: []int32{0, 1, 1}, InAdj: []int32{1}}, "not their transpose"},
		{"in-list repeats an edge", flatAdj{N: 3,
			OutPtr: []int32{0, 1, 1, 2}, OutAdj: []int32{1, 1},
			InPtr: []int32{0, 0, 2, 2}, InAdj: []int32{0, 0}}, "not their transpose"},
		{"out-list repeats an edge", flatAdj{N: 2,
			OutPtr: []int32{0, 2, 2}, OutAdj: []int32{1, 1},
			InPtr: []int32{0, 0, 2}, InAdj: []int32{0, 0}}, "repeat 1 edges"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(encodeFlat(tc.wire))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Decode = %v, want an error naming %q", err, tc.wantSub)
			}
		})
	}
}

// TestDecodeRefusesBadFraming: a column count that runs past the bytes
// behind it, a truncated part and bytes after the last column are all
// refused, before anything is sized from them.
func TestDecodeRefusesBadFraming(t *testing.T) {
	clean := fuzzGraph().AppendEncoded(nil)
	past := slices.Clone(clean)
	past[4] = 0xff // OutPtr's count, after the 4-byte node count
	for name, data := range map[string][]byte{
		"column past the end": past,
		"truncated":           clean[:len(clean)-3],
		"trailing bytes":      append(slices.Clone(clean), 0),
	} {
		if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "column: ") {
			t.Errorf("%s: Decode = %v, want a column framing error", name, err)
		}
	}
}

// TestDecodedListsStayApart: a decoded graph's lists are windows of one
// decoded column, so growing one must not write into its neighbour's:
// the same inserts and deletes on the original and the decoded graph
// leave equal encodings.
func TestDecodedListsStayApart(t *testing.T) {
	g := fuzzGraph()
	g2, err := Decode(g.AppendEncoded(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Graph{g, g2} {
		h.DeleteEdge(0, 4)
		for u := int32(0); int(u) < h.NumNodes(); u++ {
			h.InsertEdge(u, (u+3)%6)
			h.InsertEdge((u+2)%6, u)
		}
	}
	if !bytes.Equal(g.AppendEncoded(nil), g2.AppendEncoded(nil)) {
		t.Fatal("the decoded graph diverged from the original under the same edits")
	}
}

// fuzzGraph is a small graph with a self-loop and one swap-removed edge.
func fuzzGraph() *Graph {
	g := New(6)
	for _, e := range [][2]int32{{0, 1}, {1, 0}, {2, 2}, {3, 1}, {0, 4}, {4, 5}, {5, 0}} {
		g.InsertEdge(e[0], e[1])
	}
	g.DeleteEdge(0, 1)
	return g
}

// FuzzGraphGobDecode feeds arbitrary bytes to Decode, the graph's saved
// form (the name is the one the fuzzer had when that form was gob). It
// must never panic, and any graph it accepts must delete every one of its
// edges without a panic and end with none. The seeds are a clean graph
// and one whose in-lists lack its edge.
func FuzzGraphGobDecode(f *testing.F) {
	f.Add(fuzzGraph().AppendEncoded(nil))
	f.Add(encodeFlat(flatAdj{N: 2,
		OutPtr: []int32{0, 1, 1}, OutAdj: []int32{1}, InPtr: []int32{0, 0, 0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(data)
		if err != nil {
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
