package graph

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// gobGraph is the wire form of a Graph. Both adjacency directions are
// stored verbatim (flattened, with per-node offsets): neighbor order
// affects the processing order of push queues downstream, so a loaded
// graph must be indistinguishable from the original, not merely
// edge-equivalent.
type gobGraph struct {
	Version uint8
	N       int
	OutPtr  []int32
	OutAdj  []int32
	InPtr   []int32
	InAdj   []int32
}

const gobGraphVersion = 2

func flatten(adj [][]int32) (ptr, flat []int32) {
	ptr = make([]int32, len(adj)+1)
	for i, s := range adj {
		ptr[i+1] = ptr[i] + int32(len(s))
		flat = append(flat, s...)
	}
	return ptr, flat
}

// GobEncode implements gob.GobEncoder.
func (g *Graph) GobEncode() ([]byte, error) {
	wire := gobGraph{Version: gobGraphVersion, N: g.NumNodes()}
	wire.OutPtr, wire.OutAdj = flatten(g.out)
	wire.InPtr, wire.InAdj = flatten(g.in)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (g *Graph) GobDecode(data []byte) error {
	var wire gobGraph
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return err
	}
	if wire.Version != gobGraphVersion {
		return fmt.Errorf("graph: gob version %d, want %d", wire.Version, gobGraphVersion)
	}
	if wire.N < 0 {
		return fmt.Errorf("graph: gob node count %d", wire.N)
	}
	if err := checkAdj("out", wire.N, wire.OutPtr, wire.OutAdj); err != nil {
		return err
	}
	if err := checkAdj("in", wire.N, wire.InPtr, wire.InAdj); err != nil {
		return err
	}
	*g = *New(wire.N)
	for v := 0; v < wire.N; v++ {
		g.out[v] = append([]int32(nil), wire.OutAdj[wire.OutPtr[v]:wire.OutPtr[v+1]]...)
		g.in[v] = append([]int32(nil), wire.InAdj[wire.InPtr[v]:wire.InPtr[v+1]]...)
	}
	for u := int32(0); int(u) < wire.N; u++ {
		for _, v := range g.out[u] {
			g.edges[edgeKey(u, v)] = struct{}{}
			g.m++
		}
	}
	if len(g.edges) != g.m {
		return fmt.Errorf("graph: gob out-lists repeat %d edges", g.m-len(g.edges))
	}
	return checkTranspose(wire)
}

// checkTranspose verifies that the in-lists hold each out-list edge u→v
// exactly once, as u in v's in-list: DeleteEdge panics on an edge missing
// from either side. It runs in O(n + edges) on arrays, not on the edge
// set: the out-list sources of the edges into v fill into[InPtr[v]:
// InPtr[v+1]], which must come out exactly full, and v's in-list must
// then name each of them once, checked by marking them.
func checkTranspose(w gobGraph) error {
	if len(w.OutAdj) != len(w.InAdj) {
		return fmt.Errorf("graph: gob in-lists hold %d edges, out-lists %d: not their transpose", len(w.InAdj), len(w.OutAdj))
	}
	next := append([]int32(nil), w.InPtr[:w.N]...)
	into := make([]int32, len(w.InAdj))
	for u := 0; u < w.N; u++ {
		for _, v := range w.OutAdj[w.OutPtr[u]:w.OutPtr[u+1]] {
			if next[v] == w.InPtr[v+1] {
				return fmt.Errorf("graph: gob in-list of node %d is shorter than the out-lists' edges into it: not their transpose", v)
			}
			into[next[v]] = int32(u)
			next[v]++
		}
	}
	mark := make([]int, w.N) // v+1 on the sources of v's edges not yet named
	for v := 0; v < w.N; v++ {
		lo, hi := w.InPtr[v], w.InPtr[v+1]
		for _, u := range into[lo:hi] {
			mark[u] = v + 1
		}
		for _, u := range w.InAdj[lo:hi] {
			if mark[u] != v+1 {
				return fmt.Errorf("graph: gob in-list of node %d names %d, but the out-lists hold no further edge %d→%d: not their transpose", v, u, u, v)
			}
			mark[u] = 0
		}
	}
	return nil
}

// checkAdj validates one flattened adjacency direction before GobDecode
// slices it: n+1 offsets that start at 0, never decrease and end at
// len(adj), and every neighbour a node id in [0, n).
func checkAdj(dir string, n int, ptr, adj []int32) error {
	if len(ptr) != n+1 || ptr[0] != 0 || int(ptr[n]) != len(adj) {
		return fmt.Errorf("graph: gob %s-offsets do not span %d nodes and %d neighbours", dir, n, len(adj))
	}
	for v := 0; v < n; v++ {
		if ptr[v] > ptr[v+1] {
			return fmt.Errorf("graph: gob %s-offsets decrease at node %d", dir, v)
		}
	}
	for _, w := range adj {
		if w < 0 || int(w) >= n {
			return fmt.Errorf("graph: gob %s-neighbour %d outside [0, %d)", dir, w, n)
		}
	}
	return nil
}
