// Package hsvd implements the hierarchical SVD of Iwen & Ong ("A
// distributed and incremental SVD algorithm for agglomerative data
// analysis on large networks", SIMAX 2016): split the input matrix into b
// column blocks, take an *exact* truncated SVD of every block, concatenate
// the U·Σ results in groups of k, and recurse. It is the method Tree-SVD
// improves on — identical tree structure, but an exact (slow) SVD at level
// 1 instead of a sparse randomized one — and serves as the Exp. 2 / Fig. 11
// competitor.
package hsvd

import (
	"fmt"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/par"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// Config mirrors Tree-SVD's tree shape.
type Config struct {
	// Rank d of every truncated SVD and of the final embedding.
	Rank int
	// Blocks is the number b of level-1 column blocks.
	Blocks int
	// Branch is the merge fan-in k; b/k blocks remain after each level.
	Branch int
	// Workers is the worker budget (0 or 1 = sequential), split across the
	// level-1 blocks and the merge sweep exactly like core.Tree.Build's.
	Workers int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Rank <= 0 {
		return fmt.Errorf("hsvd: rank %d must be positive", c.Rank)
	}
	if c.Blocks <= 0 {
		return fmt.Errorf("hsvd: blocks %d must be positive", c.Blocks)
	}
	if c.Branch < 2 {
		return fmt.Errorf("hsvd: branch %d must be ≥ 2", c.Branch)
	}
	return nil
}

// Factorize runs hierarchical SVD over a sparse matrix and returns the
// final d-rank truncated SVD result (U and Σ; V is the small right-factor
// of the last merge, not the full-width right singular matrix).
func Factorize(m *sparse.CSR, cfg Config) *linalg.SVDResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nb := cfg.Blocks
	if nb > m.Cols {
		nb = m.Cols
	}
	width := (m.Cols + nb - 1) / nb
	nb = (m.Cols + width - 1) / width
	// Level 1: exact truncated SVD per column block.
	w := par.Workers(cfg.Workers)
	kb := par.SplitBudget(w, nb)
	level := make([]*linalg.Dense, nb)
	mustFor(nb, w, func(j int) {
		lo := j * width
		hi := lo + width
		if hi > m.Cols {
			hi = m.Cols
		}
		blk := m.SliceColsCSR(lo, hi).ToDense()
		level[j] = linalg.SVDTruncW(blk, cfg.Rank, kb).US()
	})
	return mergeLevels(level, cfg)
}

// mustFor runs fn(i) for every i in [0,n) across at most w workers,
// re-raising a task's panic on the calling goroutine.
func mustFor(n, w int, fn func(i int)) {
	if err := par.ForErr(nil, n, w, func(i int) error { fn(i); return nil }); err != nil {
		panic(err)
	}
}

// mergeLevels repeatedly concatenates groups of k compressed blocks and
// re-factors them until one matrix remains, returning its truncated SVD.
// Each level's merges fan out across the worker budget; the final merge is
// a single task and runs its SVD with the whole budget.
func mergeLevels(level []*linalg.Dense, cfg Config) *linalg.SVDResult {
	w := par.Workers(cfg.Workers)
	for len(level) > 1 {
		parents := (len(level) + cfg.Branch - 1) / cfg.Branch
		mb := par.SplitBudget(w, parents)
		if parents == 1 {
			// Final merge: return the full truncated result.
			return linalg.SVDTruncW(linalg.HCat(level...), cfg.Rank, w)
		}
		next := make([]*linalg.Dense, parents)
		lv := level
		mustFor(parents, w, func(pi int) {
			lo := pi * cfg.Branch
			hi := lo + cfg.Branch
			if hi > len(lv) {
				hi = len(lv)
			}
			next[pi] = linalg.SVDTruncW(linalg.HCat(lv[lo:hi]...), cfg.Rank, mb).US()
		})
		level = next
	}
	// Single block: its SVD is the answer.
	return linalg.SVDTruncW(level[0], cfg.Rank, w)
}
