// Package core implements Tree-SVD, the paper's primary contribution: a
// hierarchical truncated SVD over vertically partitioned sparse matrices
// (Algorithm 3) whose per-block intermediate results are cached so that
// dynamic updates only re-factor blocks whose accumulated change violates
// the Frobenius trigger of Lemma 3.4 (Algorithm 4, the lazy update).
package core

import (
	"fmt"
)

// Config holds the Tree-SVD hyper-parameters (Table 2 notation in
// comments).
type Config struct {
	// Rank is the embedding dimension d; every truncated SVD in the tree
	// keeps d singular triplets.
	Rank int
	// Branch is the fan-in k: how many child results merge into one
	// parent matrix.
	Branch int
	// Levels is the tree depth q; the number of level-1 blocks is
	// b = k^(q-1). The paper uses q=3, k=8 → b=64.
	Levels int
	// Delta is the lazy-update threshold δ of Eqn. 2; a level-1 block is
	// re-factored when tail + ‖D_j‖_F > √2·δ·‖B_j‖_F. The theoretical
	// guarantee of Theorem 3.6 holds for δ ≤ (1+ε)/√2; the paper uses
	// 0.65 empirically.
	Delta float64
	// Oversample and PowerIters tune the level-1 randomized SVD.
	Oversample int
	PowerIters int
	// Seed makes the randomized level-1 factorization deterministic.
	Seed int64
	// UseCountSketch switches the level-1 range finder from Gaussian to
	// Clarkson–Woodruff (the input-sparsity-time variant); an ablation
	// knob, off by default.
	UseCountSketch bool
	// Workers parallelizes per-block factorization and per-level merges
	// (0 or 1 = sequential).
	Workers int
	// Retired; named by benchmark/trace.go, delete with ROADMAP item 1's
	// seam. Validate rejects any non-zero value.
	SVDUpdate      bool
	UpdateMaxRel   float64
	UpdateTailFrac float64
}

// DefaultConfig mirrors the paper's settings scaled to this repository's
// benchmark sizes: q=3, k=8, b=64, δ=0.65.
func DefaultConfig(rank int) Config {
	return Config{Rank: rank, Branch: 8, Levels: 3, Delta: 0.65, Oversample: 8, PowerIters: 0, Seed: 1}
}

// Blocks returns b = k^(q-1), the requested number of level-1 blocks.
func (c Config) Blocks() int {
	b := 1
	for i := 1; i < c.Levels; i++ {
		b *= c.Branch
	}
	return b
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Rank <= 0 {
		return fmt.Errorf("core: rank %d must be positive", c.Rank)
	}
	if c.Branch < 2 {
		return fmt.Errorf("core: branch %d must be ≥ 2", c.Branch)
	}
	if c.Levels < 2 {
		return fmt.Errorf("core: levels %d must be ≥ 2", c.Levels)
	}
	if c.Delta < 0 {
		return fmt.Errorf("core: delta %g must be non-negative", c.Delta)
	}
	if c.SVDUpdate || c.UpdateMaxRel != 0 || c.UpdateTailFrac != 0 {
		return fmt.Errorf("core: SVDUpdate/UpdateMaxRel/UpdateTailFrac (%t/%g/%g) were removed: the incremental block update was slower than re-factoring on every benchmark workload",
			c.SVDUpdate, c.UpdateMaxRel, c.UpdateTailFrac)
	}
	return nil
}
