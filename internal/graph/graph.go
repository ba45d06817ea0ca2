// Package graph provides the dynamic directed-graph substrate: an
// adjacency structure with O(degree) edge insertion/deletion that maintains
// forward and reverse adjacency jointly, the snapshot/event stream model of
// Definition 2.1 of the paper, and edge-list IO.
package graph

import (
	"fmt"
)

// Graph is a mutable directed graph over nodes 0..NumNodes()-1. Both
// out-adjacency and in-adjacency are maintained so personalized PageRank
// can run on the graph and its reverse without materializing a transposed
// copy. Parallel edges are rejected; self-loops are allowed.
type Graph struct {
	out   [][]int32
	in    [][]int32
	edges map[int64]struct{}
	m     int
}

// New creates a graph with n isolated nodes.
func New(n int) *Graph {
	return &Graph{
		out:   make([][]int32, n),
		in:    make([][]int32, n),
		edges: make(map[int64]struct{}, n),
	}
}

// NumNodes returns the current node count.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the current edge count.
func (g *Graph) NumEdges() int { return g.m }

// EnsureNode grows the graph so node v exists.
func (g *Graph) EnsureNode(v int32) {
	for int(v) >= len(g.out) {
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
}

func edgeKey(u, v int32) int64 { return int64(u)<<32 | int64(uint32(v)) }

// HasEdge reports whether edge (u,v) exists.
func (g *Graph) HasEdge(u, v int32) bool {
	_, ok := g.edges[edgeKey(u, v)]
	return ok
}

// InsertEdge adds the directed edge (u,v), growing the node set as needed.
// It returns false if the edge already exists.
func (g *Graph) InsertEdge(u, v int32) bool {
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: negative node id (%d,%d)", u, v))
	}
	k := edgeKey(u, v)
	if _, ok := g.edges[k]; ok {
		return false
	}
	g.EnsureNode(u)
	g.EnsureNode(v)
	g.edges[k] = struct{}{}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
	return true
}

// DeleteEdge removes the directed edge (u,v). It returns false if the edge
// does not exist.
func (g *Graph) DeleteEdge(u, v int32) bool {
	k := edgeKey(u, v)
	if _, ok := g.edges[k]; !ok {
		return false
	}
	delete(g.edges, k)
	g.out[u] = removeOne(g.out[u], v)
	g.in[v] = removeOne(g.in[v], u)
	g.m--
	return true
}

// removeOne deletes the first occurrence of x via swap-remove.
func removeOne(s []int32, x int32) []int32 {
	for i, v := range s {
		if v == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	panic("graph: adjacency/edge-set inconsistency")
}

// OutDeg returns the out-degree of v.
func (g *Graph) OutDeg(v int32) int { return len(g.out[v]) }

// InDeg returns the in-degree of v.
func (g *Graph) InDeg(v int32) int { return len(g.in[v]) }

// OutNeighbors returns v's out-neighbors. The slice aliases internal
// storage and is invalidated by mutations; callers must not modify it.
func (g *Graph) OutNeighbors(v int32) []int32 { return g.out[v] }

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		out:   make([][]int32, len(g.out)),
		in:    make([][]int32, len(g.in)),
		edges: make(map[int64]struct{}, len(g.edges)),
		m:     g.m,
	}
	for i, s := range g.out {
		c.out[i] = append([]int32(nil), s...)
	}
	for i, s := range g.in {
		c.in[i] = append([]int32(nil), s...)
	}
	for k := range g.edges {
		c.edges[k] = struct{}{}
	}
	return c
}

// Direction selects which orientation of the graph an algorithm traverses.
type Direction uint8

const (
	// Forward traverses edges as stored.
	Forward Direction = iota
	// Reverse traverses edges backwards (the transposed graph Gᵀ).
	Reverse
)

// Neighbors returns v's out-neighbors in the chosen direction.
func (g *Graph) Neighbors(v int32, dir Direction) []int32 {
	if dir == Forward {
		return g.out[v]
	}
	return g.in[v]
}

// Degree returns v's out-degree in the chosen direction.
func (g *Graph) Degree(v int32, dir Direction) int {
	if dir == Forward {
		return len(g.out[v])
	}
	return len(g.in[v])
}
