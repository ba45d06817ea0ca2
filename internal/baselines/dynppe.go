// Package baselines implements the competitor methods of the paper's
// evaluation: DynPPE (hashing-based dynamic subset embedding, Guo et al.),
// Global-STRAP and Subset-STRAP (truncated-SVD matrix factorization, Yin &
// Wei), FREDE (frequent-directions row sketching, Tsitsulin et al.), and
// RandNE (iterative Gaussian random projection, Zhang et al.). All of them
// share this repository's PPR and linear-algebra substrates so timing
// comparisons are apples-to-apples.
package baselines

import (
	"context"
	"math"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/ppr"
)

// DynPPE is the hashing-based dynamic subset embedding: per source s ∈ S
// it maintains an approximate PPR vector with Forward-Push / dynamic
// Forward-Push and hashes it into d dimensions with a feature-hashing
// kernel, emb[h(v)] += ξ(v)·π̂_s(v). Updates re-hash only the PPR entries
// that changed.
type DynPPE struct {
	Sub  *ppr.Subset
	Dim  int
	seed uint64

	emb *linalg.Dense
	// shadow[i][v] is the hashed contribution ξ(v)·p_s(v) last folded into
	// row i, enabling O(changed entries) incremental re-hashing.
	shadow []map[int32]float64
}

// NewDynPPE builds the initial hashed embeddings for subset s on g.
func NewDynPPE(g *graph.Graph, s []int32, params ppr.Params, dim int, seed int64) (*DynPPE, error) {
	sub, err := ppr.NewSubsetDirs(g, s, params, true, false)
	if err != nil {
		return nil, err
	}
	d := &DynPPE{
		Sub:    sub,
		Dim:    dim,
		seed:   uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567,
		emb:    linalg.NewDense(len(s), dim),
		shadow: make([]map[int32]float64, len(s)),
	}
	for i := range d.shadow {
		d.shadow[i] = make(map[int32]float64)
		d.rehashRow(i)
	}
	return d, nil
}

// hash maps a node to (dimension, sign) with a splitmix64 mix.
func (d *DynPPE) hash(v int32) (int, float64) {
	x := uint64(v)*0xBF58476D1CE4E5B9 + d.seed
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 27
	dim := int(x % uint64(d.Dim))
	sign := 1.0
	if (x>>40)&1 == 1 {
		sign = -1
	}
	return dim, sign
}

// rehashRow folds the changed PPR entries of row i into its embedding.
// Entries are hashed on the same log(p/r_max) scale the MF methods use
// for their proximity matrices (values below r_max contribute nothing),
// which keeps the hash kernel from being dominated by the handful of
// largest probabilities.
func (d *DynPPE) rehashRow(i int) {
	st := d.Sub.Fwd[i]
	rmax := d.Sub.Engine.Params.RMax
	row := d.emb.Row(i)
	for _, v := range st.Touched { // a repeat re-derives the same contrib: adds 0
		dim, sign := d.hash(v)
		var contrib float64
		if arg := st.Est(v) / rmax; arg > 1 {
			contrib = sign * math.Log(arg)
		}
		row[dim] += contrib - d.shadow[i][v]
		if contrib == 0 {
			delete(d.shadow[i], v)
		} else {
			d.shadow[i][v] = contrib
		}
	}
	st.Touched = st.Touched[:0]
}

// ApplyEvents advances the graph, incrementally repairs every PPR vector,
// and re-hashes only the affected entries.
func (d *DynPPE) ApplyEvents(ctx context.Context, events []graph.Event) error {
	if err := d.Sub.ApplyEvents(ctx, events); err != nil {
		return err
	}
	for i := range d.shadow {
		d.rehashRow(i)
	}
	return nil
}

// Embedding returns the |S|×d hashed embedding matrix (live storage; do
// not mutate).
func (d *DynPPE) Embedding() *linalg.Dense { return d.emb }
