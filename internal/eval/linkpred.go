package eval

import (
	"math/rand"
	"sort"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
)

// LinkPredSplit is the paper's LP protocol (Section 6.1): the test set is
// 30% of the subset's outgoing edges (positives) plus an equal number of
// sampled non-edges (negatives); positives are removed from the training
// graph before embeddings are generated.
type LinkPredSplit struct {
	// TrainGraph has the positive test edges removed.
	TrainGraph *graph.Graph
	// PosU/PosV and NegU/NegV are the test pairs (subset node → any node).
	PosU, PosV []int32
	NegU, NegV []int32
}

// NewLinkPredSplit builds the protocol split from graph g and subset s.
// testFrac is the held-out fraction (the paper uses 0.3).
func NewLinkPredSplit(g *graph.Graph, s []int32, testFrac float64, seed int64) *LinkPredSplit {
	rng := rand.New(rand.NewSource(seed))
	inSubset := make(map[int32]bool, len(s))
	for _, v := range s {
		inSubset[v] = true
	}
	// Collect E_S, the outgoing edges of subset nodes.
	var eu, ev []int32
	for _, u := range s {
		for _, v := range g.OutNeighbors(u) {
			eu = append(eu, u)
			ev = append(ev, v)
		}
	}
	sp := &LinkPredSplit{TrainGraph: g.Clone()}
	// Sample testFrac of E_S as positives and remove them from the train
	// graph, skipping removals that would orphan a node's last out-edge
	// (keeps PPR well-behaved, mirroring mature-graph evaluation).
	order := rng.Perm(len(eu))
	want := int(testFrac * float64(len(eu)))
	for _, idx := range order {
		if len(sp.PosU) >= want {
			break
		}
		u, v := eu[idx], ev[idx]
		if sp.TrainGraph.OutDeg(u) <= 1 {
			continue
		}
		sp.TrainGraph.DeleteEdge(u, v)
		sp.PosU = append(sp.PosU, u)
		sp.PosV = append(sp.PosV, v)
	}
	// Negative pairs: random (s, v) that are not edges, with v drawn from
	// the *active* nodes (degree > 0). Sampling over the whole id space
	// would make isolated not-yet-arrived nodes trivial negatives (their
	// embeddings are zero), inflating precision on early snapshots of a
	// growing stream.
	var active []int32
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if g.OutDeg(v) > 0 || g.InDeg(v) > 0 {
			active = append(active, v)
		}
	}
	for len(sp.NegU) < len(sp.PosU) {
		u := s[rng.Intn(len(s))]
		v := active[rng.Intn(len(active))]
		if u == v || g.HasEdge(u, v) {
			continue
		}
		sp.NegU = append(sp.NegU, u)
		sp.NegV = append(sp.NegV, v)
	}
	return sp
}

// Precision scores every test pair with x_u·y_v (left embedding indexed by
// subset position, right embedding indexed by node id), ranks them, labels
// the top half positive (the test set is balanced by construction), and
// returns the fraction of true positives among predicted positives.
func (sp *LinkPredSplit) Precision(left *linalg.Dense, s []int32, right *linalg.Dense) float64 {
	pos := make(map[int32]int, len(s))
	for i, v := range s {
		pos[v] = i
	}
	type scored struct {
		score float64
		label bool
	}
	all := make([]scored, 0, len(sp.PosU)+len(sp.NegU))
	score := func(u, v int32) float64 {
		return linalg.Dot(left.Row(pos[u]), right.Row(int(v)))
	}
	for i := range sp.PosU {
		all = append(all, scored{score(sp.PosU[i], sp.PosV[i]), true})
	}
	for i := range sp.NegU {
		all = append(all, scored{score(sp.NegU[i], sp.NegV[i]), false})
	}
	if len(all) == 0 {
		return 0
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].score > all[b].score })
	k := len(sp.PosU)
	correct := 0
	for _, sc := range all[:k] {
		if sc.label {
			correct++
		}
	}
	return float64(correct) / float64(k)
}

// PrecisionSameSpace scores pairs within a single shared embedding space
// (methods like RandNE and DynPPE have no distinct right factor): the
// score of (u,v) is emb_u·emb_v with both rows indexed by node id.
func (sp *LinkPredSplit) PrecisionSameSpace(emb *linalg.Dense) float64 {
	type scored struct {
		score float64
		label bool
	}
	all := make([]scored, 0, len(sp.PosU)+len(sp.NegU))
	for i := range sp.PosU {
		all = append(all, scored{linalg.Dot(emb.Row(int(sp.PosU[i])), emb.Row(int(sp.PosV[i]))), true})
	}
	for i := range sp.NegU {
		all = append(all, scored{linalg.Dot(emb.Row(int(sp.NegU[i])), emb.Row(int(sp.NegV[i]))), false})
	}
	if len(all) == 0 {
		return 0
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].score > all[b].score })
	k := len(sp.PosU)
	correct := 0
	for _, sc := range all[:k] {
		if sc.label {
			correct++
		}
	}
	return float64(correct) / float64(k)
}
