package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// TestMergeRoutesAgree drives one churn stream through two trees, one
// whose merges take linalg's top-d eigensolver and one forced down the
// full solver, and holds the roots together after the build and after
// every lazy update: the merge kernel's route must not be observable.
func TestMergeRoutesAgree(t *testing.T) {
	// 64×32 merge concats cut to 8: inside the top-d route's range.
	cfg := Config{Rank: 8, Branch: 4, Levels: 3, Delta: 0.3, Oversample: 6, PowerIters: 2, Seed: 1}
	type side struct {
		full bool
		m    *sparse.DynRow
		tr   *Tree
		rng  *rand.Rand
	}
	sides := []*side{{full: false}, {full: true}}
	// on runs fn with the side's route selected.
	on := func(s *side, fn func()) {
		linalg.ForceFullEig.Store(s.full)
		defer linalg.ForceFullEig.Store(false)
		fn()
	}
	for _, s := range sides {
		s.rng = rand.New(rand.NewSource(21))
		s.m = sparse.NewDynRow(64, 640, cfg.Blocks())
		fillLowRank(s.rng, s.m, 12, 0.05, 0.4)
		s.tr = mustCore(NewTree(s.m, cfg))
		on(s, func() { must0t(s.tr.Build(bgt)) })
	}
	compare := func(step int) {
		t.Helper()
		a, b := sides[0].tr.Root(), sides[1].tr.Root()
		if len(a.S) != cfg.Rank || len(b.S) != cfg.Rank {
			t.Fatalf("step %d: root ranks %d and %d", step, len(a.S), len(b.S))
		}
		for i := range a.S {
			if math.Abs(a.S[i]-b.S[i]) > 1e-10*b.S[0] {
				t.Fatalf("step %d: σ%d = %v (top-d) vs %v (full)", step, i, a.S[i], b.S[i])
			}
		}
		if d := linalg.MaxAbsDiff(linalg.MulT(a.U, a.U), linalg.MulT(b.U, b.U)); d > 1e-8 {
			t.Fatalf("step %d: U·Uᵀ differs by %g between routes", step, d)
		}
		if sa, sb := sides[0].tr.Stats(), sides[1].tr.Stats(); sa != sb {
			t.Fatalf("step %d: the routes did different work: %+v vs %+v", step, sa, sb)
		}
	}
	compare(0)
	merges, rebuilt, skipped := 0, 0, 0
	for step := 1; step <= 12; step++ {
		for _, s := range sides {
			for i := 0; i < 60; i++ {
				s.m.Set(s.rng.Intn(64), s.rng.Intn(640), s.rng.NormFloat64())
			}
			on(s, func() { mustCore(s.tr.Update(bgt)) })
		}
		compare(step)
		st := sides[0].tr.Stats()
		merges, rebuilt, skipped = merges+st.UpperRebuilt, rebuilt+st.Level1Rebuilt, skipped+st.Skipped
	}
	if merges == 0 || skipped == 0 {
		t.Fatalf("the stream must both trigger and skip: %d merges, %d blocks rebuilt, %d skipped", merges, rebuilt, skipped)
	}
}
