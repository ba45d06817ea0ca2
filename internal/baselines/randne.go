package baselines

import (
	"math"
	"math/rand"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/rsvd"
)

// RandNEConfig tunes the iterative random projection.
type RandNEConfig struct {
	// Dim is the embedding dimension.
	Dim int
	// Weights are the high-order coefficients α_0..α_q of the proximity
	// polynomial Σ α_i·Aⁱ; the projection of each power is accumulated
	// without ever materializing Aⁱ.
	Weights []float64
	// Seed drives the Gaussian draw.
	Seed int64
}

// DefaultRandNEConfig mirrors the reference implementation's emphasis on
// higher-order structure (weights grow with the power).
func DefaultRandNEConfig(dim int, seed int64) RandNEConfig {
	return RandNEConfig{Dim: dim, Weights: []float64{1, 1e2, 1e4, 1e5}, Seed: seed}
}

// RandNE computes Gaussian-random-projection embeddings for every node:
// U₀ = orth(R) with R an n×d Gaussian, U_{i+1} = Â·U_i with Â the
// row-normalized adjacency, and the final embedding Σ_i α_i·U_i. The
// iterative procedure avoids explicit high-order proximity matrices
// (Section 2.2). Node classification reads subset rows; link prediction
// scores pairs within the single shared space.
func RandNE(g *graph.Graph, cfg RandNEConfig) *linalg.Dense {
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := rsvd.GaussianDense(rng, n, cfg.Dim)
	if n >= cfg.Dim {
		linalg.OrthonormalizeW(u, 1)
	}
	emb := linalg.NewDense(n, cfg.Dim)
	accumulate(emb, u, cfg.Weights[0])
	for _, w := range cfg.Weights[1:] {
		u = propagate(g, u)
		accumulate(emb, u, w)
	}
	// Row-normalize so downstream dot products are scale-free.
	for i := 0; i < n; i++ {
		row := emb.Row(i)
		norm := linalg.Norm2(row)
		if norm > 0 {
			inv := 1 / norm
			for j := range row {
				row[j] *= inv
			}
		}
	}
	return emb
}

// propagate returns Â·U for the row-normalized adjacency Â.
func propagate(g *graph.Graph, u *linalg.Dense) *linalg.Dense {
	n := g.NumNodes()
	out := linalg.NewDense(n, u.Cols)
	for v := int32(0); int(v) < n; v++ {
		nbrs := g.OutNeighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		orow := out.Row(int(v))
		inv := 1 / float64(len(nbrs))
		for _, w := range nbrs {
			urow := u.Row(int(w))
			for j, x := range urow {
				orow[j] += inv * x
			}
		}
	}
	return out
}

func accumulate(dst, src *linalg.Dense, w float64) {
	if math.IsNaN(w) || w == 0 {
		return
	}
	for i, v := range src.Data {
		dst.Data[i] += w * v
	}
}
