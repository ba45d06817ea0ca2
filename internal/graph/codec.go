package graph

import (
	"fmt"

	"github.com/tree-svd/treesvd/internal/column"
)

// A Graph's saved form stores both adjacency directions verbatim,
// flattened behind per-node offsets: neighbor order affects the
// processing order of push queues downstream, so a loaded graph must be
// indistinguishable from the original, not merely edge-equivalent. The
// layout, in column's little-endian form:
//
//	int32 n | OutPtr (n+1 offsets) | OutAdj | InPtr (n+1 offsets) | InAdj
//
// flatAdj is that layout decoded, before any check.
type flatAdj struct {
	N                            int32
	OutPtr, OutAdj, InPtr, InAdj []int32
}

// EncodedLen is the size of the graph's saved form.
func (g *Graph) EncodedLen() int {
	return 4 + 2*column.Int32sLen(len(g.out)+1) + 2*column.Int32sLen(g.m)
}

// AppendEncoded appends the graph's saved form to b.
func (g *Graph) AppendEncoded(b []byte) []byte {
	b = column.AppendUint32(b, uint32(len(g.out)))
	b = appendAdj(b, g.out)
	return appendAdj(b, g.in)
}

// appendAdj appends one direction: its offsets, then its neighbours.
func appendAdj(b []byte, adj [][]int32) []byte {
	b, ptr := column.Reserve(b, len(adj)+1, 4)
	off := 0
	for v, s := range adj {
		off += len(s)
		column.PutInt32(ptr, v+1, int32(off))
	}
	b, flat := column.Reserve(b, off, 4)
	i := 0
	for _, s := range adj {
		for _, w := range s {
			column.PutInt32(flat, i, w)
			i++
		}
	}
	return b
}

// Decode restores a graph from its saved form. The bytes are not trusted:
// the offsets must span the neighbours, every neighbour must be a node,
// no out-list may repeat an edge, and the in-lists must be the out-lists'
// transpose, so that no later DeleteEdge can find one side without the
// other.
func Decode(data []byte) (*Graph, error) {
	r := column.NewReader(data)
	w := flatAdj{N: r.Int32(), OutPtr: r.Int32s(), OutAdj: r.Int32s(), InPtr: r.Int32s(), InAdj: r.Int32s()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	n := int(w.N)
	if n < 0 {
		return nil, fmt.Errorf("graph: decode: node count %d", n)
	}
	if err := checkAdj("out", n, w.OutPtr, w.OutAdj); err != nil {
		return nil, err
	}
	if err := checkAdj("in", n, w.InPtr, w.InAdj); err != nil {
		return nil, err
	}
	g := &Graph{out: make([][]int32, n), in: make([][]int32, n), edges: make(map[int64]struct{}, len(w.OutAdj))}
	// Each list is a capacity-capped window of the decoded column: a
	// delete shrinks it in place, an insert's append moves it out.
	for v := 0; v < n; v++ {
		lo, hi := w.OutPtr[v], w.OutPtr[v+1]
		g.out[v] = w.OutAdj[lo:hi:hi]
		lo, hi = w.InPtr[v], w.InPtr[v+1]
		g.in[v] = w.InAdj[lo:hi:hi]
	}
	for u := int32(0); int(u) < n; u++ {
		for _, v := range g.out[u] {
			g.edges[edgeKey(u, v)] = struct{}{}
			g.m++
		}
	}
	if len(g.edges) != g.m {
		return nil, fmt.Errorf("graph: decode: out-lists repeat %d edges", g.m-len(g.edges))
	}
	if err := checkTranspose(w); err != nil {
		return nil, err
	}
	return g, nil
}

// checkTranspose verifies that the in-lists hold each out-list edge u→v
// exactly once, as u in v's in-list: DeleteEdge panics on an edge missing
// from either side. It runs in O(n + edges) on arrays, not on the edge
// set: the out-list sources of the edges into v fill into[InPtr[v]:
// InPtr[v+1]], which must come out exactly full, and v's in-list must
// then name each of them once, checked by marking them.
func checkTranspose(w flatAdj) error {
	if len(w.OutAdj) != len(w.InAdj) {
		return fmt.Errorf("graph: decode: in-lists hold %d edges, out-lists %d: not their transpose", len(w.InAdj), len(w.OutAdj))
	}
	n := int(w.N)
	next := append([]int32(nil), w.InPtr[:n]...)
	into := make([]int32, len(w.InAdj))
	for u := 0; u < n; u++ {
		for _, v := range w.OutAdj[w.OutPtr[u]:w.OutPtr[u+1]] {
			if next[v] == w.InPtr[v+1] {
				return fmt.Errorf("graph: decode: in-list of node %d is shorter than the out-lists' edges into it: not their transpose", v)
			}
			into[next[v]] = int32(u)
			next[v]++
		}
	}
	mark := make([]int, n) // v+1 on the sources of v's edges not yet named
	for v := 0; v < n; v++ {
		lo, hi := w.InPtr[v], w.InPtr[v+1]
		for _, u := range into[lo:hi] {
			mark[u] = v + 1
		}
		for _, u := range w.InAdj[lo:hi] {
			if mark[u] != v+1 {
				return fmt.Errorf("graph: decode: in-list of node %d names %d, but the out-lists hold no further edge %d→%d: not their transpose", v, u, u, v)
			}
			mark[u] = 0
		}
	}
	return nil
}

// checkAdj validates one flattened adjacency direction before Decode
// slices it: n+1 offsets that start at 0, never decrease and end at
// len(adj), and every neighbour a node id in [0, n).
func checkAdj(dir string, n int, ptr, adj []int32) error {
	if len(ptr) != n+1 || ptr[0] != 0 || int(ptr[n]) != len(adj) {
		return fmt.Errorf("graph: decode: %s-offsets do not span %d nodes and %d neighbours", dir, n, len(adj))
	}
	for v := 0; v < n; v++ {
		if ptr[v] > ptr[v+1] {
			return fmt.Errorf("graph: decode: %s-offsets decrease at node %d", dir, v)
		}
	}
	for _, w := range adj {
		if w < 0 || int(w) >= n {
			return fmt.Errorf("graph: decode: %s-neighbour %d outside [0, %d)", dir, w, n)
		}
	}
	return nil
}
