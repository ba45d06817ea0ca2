package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// TestParallelBuildMatchesSequential: the worker pool must not change a
// bit of the result — per-block seeds are position-derived, so the
// factorization is schedule-independent.
func TestParallelBuildMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfgSeq := testConfig(4)
	m1 := sparse.NewDynRow(10, 64, cfgSeq.Blocks())
	fillLowRank(rng, m1, 4, 0.05, 0.7)
	m2 := sparse.NewDynRow(10, 64, cfgSeq.Blocks())
	for r := 0; r < 10; r++ {
		for _, c := range m1.RowColumns(r) {
			m2.Set(r, int(c), m1.Get(r, int(c)))
		}
	}
	tSeq := mustCore(NewTree(m1, cfgSeq))
	must0t(tSeq.Build(bgt))
	cfgPar := cfgSeq
	cfgPar.Workers = 4
	tPar := mustCore(NewTree(m2, cfgPar))
	must0t(tPar.Build(bgt))
	if d := linalg.MaxAbsDiff(tSeq.Embedding(), tPar.Embedding()); d != 0 {
		t.Fatalf("parallel build diverges from sequential: %g", d)
	}
}

// TestLargeBlockRefactorKeepsEveryBit re-factors one level-1 block big
// enough that its sparse products run in parallel (2·nnz·(Rank+8) is at
// least the kernels' 2¹⁸-flop floor) and requires the embedding's bits to
// be the same at 1, 2 and 4 workers.
func TestLargeBlockRefactorKeepsEveryBit(t *testing.T) {
	const rows, cols = 256, 2048
	cfg := Config{Rank: 16, Branch: 2, Levels: 2, Delta: 0.65, Seed: 1}
	var want *linalg.Dense
	for _, w := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(43))
		m := sparse.NewDynRow(rows, cols, cfg.Blocks())
		fillLowRank(rng, m, 8, 0.3, 0.12)
		if nnz := m.BlockCSR(0).NNZ(); 2*nnz*(cfg.Rank+8) < 1<<18 {
			t.Fatalf("block 0 has %d entries: its products stay under the parallel floor", nnz)
		}
		cfg.Workers = w
		tr := mustCore(NewTree(m, cfg))
		must0t(tr.Build(bgt))
		for i := 0; i < 200; i++ {
			m.Set(rng.Intn(rows), rng.Intn(cols/2), rng.NormFloat64())
		}
		mustCore(tr.ForceRebuildBlock(bgt, 0))
		got := tr.Embedding()
		if want == nil {
			want = got
			continue
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("workers=%d: embedding element %d is %x, workers=1 %x", w, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	}
}

// TestParallelUpdateRace exercises the parallel update path under the race
// detector (run with -race).
func TestParallelUpdateRace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := testConfig(4)
	cfg.Workers = 4
	cfg.Delta = 0.1
	m := sparse.NewDynRow(12, 128, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.05, 0.5)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	for round := 0; round < 5; round++ {
		for i := 0; i < 80; i++ {
			m.Set(rng.Intn(12), rng.Intn(128), rng.NormFloat64())
		}
		mustCore(tr.Update(bgt))
	}
	if tr.Root().Rank() == 0 {
		t.Fatal("parallel updates lost the factorization")
	}
}
