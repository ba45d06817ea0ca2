package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// fillLowRank populates a DynRow with a low-rank + noise matrix.
func fillLowRank(rng *rand.Rand, m *sparse.DynRow, rank int, noise, density float64) {
	u := linalg.NewDense(m.Rows(), rank)
	v := linalg.NewDense(m.Cols(), rank)
	for i := range u.Data {
		u.Data[i] = rng.NormFloat64()
	}
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if rng.Float64() < density {
				m.Set(i, j, linalg.Dot(u.Row(i), v.Row(j))+noise*rng.NormFloat64())
			}
		}
	}
}

func testConfig(rank int) Config {
	return Config{Rank: rank, Branch: 2, Levels: 3, Delta: 0.65, Seed: 1}
}

func TestConfigBlocks(t *testing.T) {
	c := Config{Rank: 8, Branch: 8, Levels: 3}
	if c.Blocks() != 64 {
		t.Fatalf("Blocks = %d, want 64 (paper setting)", c.Blocks())
	}
	c = Config{Rank: 8, Branch: 2, Levels: 4}
	if c.Blocks() != 8 {
		t.Fatalf("Blocks = %d, want 8", c.Blocks())
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{Rank: 0, Branch: 2, Levels: 2},
		{Rank: 4, Branch: 1, Levels: 2},
		{Rank: 4, Branch: 2, Levels: 1},
		{Rank: 4, Branch: 2, Levels: 2, Delta: -1},
	} {
		if bad.Validate() == nil {
			t.Fatalf("accepted bad config %+v", bad)
		}
	}
	if DefaultConfig(64).Validate() != nil {
		t.Fatal("default config invalid")
	}
}

// TestConfigValidateUpdateKnobs: the retired incremental-update knobs are
// each rejected by name.
func TestConfigValidateUpdateKnobs(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"SVDUpdate":      func(c *Config) { c.SVDUpdate = true },
		"UpdateMaxRel":   func(c *Config) { c.UpdateMaxRel = 0.5 },
		"UpdateTailFrac": func(c *Config) { c.UpdateTailFrac = 0.25 },
	} {
		c := DefaultConfig(64)
		set(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s set: got %v, want an error naming it", name, err)
		}
	}
}

func TestBuildEmbeddingShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig(4)
	m := sparse.NewDynRow(10, 40, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.05, 0.6)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	x := tr.Embedding()
	if x.Rows != 10 || x.Cols != 4 {
		t.Fatalf("embedding shape %d×%d, want 10×4", x.Rows, x.Cols)
	}
	if tr.Stats().Level1Rebuilt != m.NumBlocks() {
		t.Fatalf("Build rebuilt %d blocks, want %d", tr.Stats().Level1Rebuilt, m.NumBlocks())
	}
}

func TestStaticTheorem32Bound(t *testing.T) {
	// Theorem 3.2: the recovered rank-d factorization satisfies
	// ‖Ψ‖_F ≤ ((2+ε)(1+√2)^{q-1} − 1)·‖M − (M)_d‖_F. We check the
	// observable projection error of the root left subspace.
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig(4)
	m := sparse.NewDynRow(12, 48, cfg.Blocks())
	fillLowRank(rng, m, 8, 0.3, 1.0)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	got := tr.ReconstructionError()
	dense := m.ToDense()
	best := linalg.SVDW(dense, 1).TailEnergy(dense.FrobNorm(), cfg.Rank)
	eps := 0.5 // generous ε for the randomized level 1
	bound := ((2 + eps) * math.Pow(1+math.Sqrt2, float64(cfg.Levels-1))) * best
	if got > bound {
		t.Fatalf("reconstruction error %g exceeds Theorem 3.2 bound %g", got, bound)
	}
	// Empirically Tree-SVD should be near-optimal, not just within bound.
	if got > 1.35*best {
		t.Fatalf("reconstruction error %g vs optimal %g: too loose in practice", got, best)
	}
}

func TestExactLowRankRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig(3)
	m := sparse.NewDynRow(9, 36, cfg.Blocks())
	fillLowRank(rng, m, 3, 0, 1.0)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	if err := tr.ReconstructionError(); err > 1e-6*m.FrobNorm() {
		t.Fatalf("exact rank-3 input: reconstruction error %g", err)
	}
	// Singular values must match the exact SVD.
	exact := linalg.SVDTruncW(m.ToDense(), 3, 1)
	root := tr.Root()
	for i := range exact.S {
		if math.Abs(root.S[i]-exact.S[i]) > 1e-6*exact.S[0] {
			t.Fatalf("σ%d = %g, want %g", i, root.S[i], exact.S[i])
		}
	}
}

func TestUpdateNoChangeIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := testConfig(4)
	m := sparse.NewDynRow(8, 32, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.05, 0.6)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	before := tr.Embedding()
	if n := mustCore(tr.Update(bgt)); n != 0 {
		t.Fatalf("update with no changes rebuilt %d blocks", n)
	}
	if tr.Stats().UpperRebuilt != 0 {
		t.Fatal("update with no changes touched upper levels")
	}
	if d := linalg.MaxAbsDiff(before, tr.Embedding()); d != 0 {
		t.Fatal("embedding changed with no data change")
	}
}

func TestUpdateSmallChangeLazySkips(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := testConfig(4)
	m := sparse.NewDynRow(8, 64, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.02, 0.8)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	// Tiny perturbation of one entry in block 0: must stay under the
	// Eqn. 2 threshold and be skipped.
	m.Set(0, 0, m.Get(0, 0)+1e-6)
	if n := mustCore(tr.Update(bgt)); n != 0 {
		t.Fatalf("negligible change rebuilt %d blocks", n)
	}
}

func TestUpdateLargeChangeRebuildsOnlyAffected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := testConfig(4)
	m := sparse.NewDynRow(8, 64, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.02, 0.8)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	// Overwrite block 0 entirely: a massive change confined to one block.
	lo, hi := m.BlockRange(0)
	for i := 0; i < 8; i++ {
		for c := lo; c < hi; c++ {
			m.Set(i, c, rng.NormFloat64()*3)
		}
	}
	n := mustCore(tr.Update(bgt))
	if n != 1 {
		t.Fatalf("rebuilt %d blocks, want exactly 1", n)
	}
	st := tr.Stats()
	if st.Skipped != m.NumBlocks()-1 {
		t.Fatalf("skipped %d blocks, want %d", st.Skipped, m.NumBlocks()-1)
	}
	// Affected path: one ancestor per upper level (q−1 = 2 merges).
	if st.UpperRebuilt != cfg.Levels-1 {
		t.Fatalf("upper rebuilds = %d, want %d (affected path only)", st.UpperRebuilt, cfg.Levels-1)
	}
}

func TestUpdateEmbeddingTracksData(t *testing.T) {
	// After updates the embedding must approximate the *new* matrix about
	// as well as a from-scratch build.
	rng := rand.New(rand.NewSource(8))
	cfg := testConfig(4)
	cfg.Delta = 0.3 // eager-ish updates for a tight comparison
	m := sparse.NewDynRow(10, 80, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.05, 0.7)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	// Substantial churn across all blocks.
	for step := 0; step < 400; step++ {
		m.Set(rng.Intn(10), rng.Intn(80), rng.NormFloat64())
	}
	mustCore(tr.Update(bgt))
	got := tr.ReconstructionError()
	dense := m.ToDense()
	best := linalg.SVDW(dense, 1).TailEnergy(dense.FrobNorm(), cfg.Rank)
	if got > 2.5*best {
		t.Fatalf("post-update reconstruction %g vs optimal %g", got, best)
	}
}

func TestLazyBoundTheorem36(t *testing.T) {
	// Theorem 3.6: with cached (stale) blocks the recovered factorization
	// satisfies ‖Ψ‖_F ≤ ((1+δ√2)(1+√2)^{q-1} − 1)·‖M‖_F. The observable
	// projection error is bounded by ‖Ψ‖_F + ‖M−(M)_d‖… we check the
	// conservative form against ‖M‖_F.
	rng := rand.New(rand.NewSource(9))
	cfg := testConfig(4)
	m := sparse.NewDynRow(10, 80, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.05, 0.7)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	for step := 0; step < 150; step++ {
		m.Set(rng.Intn(10), rng.Intn(80), rng.NormFloat64())
	}
	mustCore(tr.Update(bgt))
	got := tr.ReconstructionError()
	bound := ((1 + cfg.Delta*math.Sqrt2) * math.Pow(1+math.Sqrt2, float64(cfg.Levels-1))) * m.FrobNorm()
	if got > bound {
		t.Fatalf("lazy reconstruction %g exceeds Theorem 3.6 bound %g", got, bound)
	}
}

func TestDeltaZeroForcesEagerUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := testConfig(4)
	cfg.Delta = 0
	m := sparse.NewDynRow(8, 64, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.05, 0.7)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	// Touch one entry per block: δ=0 must rebuild every touched block.
	for j := 0; j < m.NumBlocks(); j++ {
		lo, _ := m.BlockRange(j)
		m.Set(0, lo, m.Get(0, lo)+0.5)
	}
	if n := mustCore(tr.Update(bgt)); n != m.NumBlocks() {
		t.Fatalf("δ=0 rebuilt %d blocks, want all %d", n, m.NumBlocks())
	}
}

func TestRightEmbeddingShapeAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := testConfig(3)
	m := sparse.NewDynRow(8, 40, cfg.Blocks())
	fillLowRank(rng, m, 3, 0, 1.0)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	y := tr.RightEmbedding()
	if y.Rows != 40 || y.Cols != 3 {
		t.Fatalf("right embedding shape %d×%d, want 40×3", y.Rows, y.Cols)
	}
	// For an exact factorization, X·Yᵀ should reconstruct M:
	// X·Yᵀ = U√Σ·(√Σ⁻¹... ) — U√Σ · (MᵀUΣ^{-1/2})ᵀ = U·Uᵀ·M = M.
	x := tr.Embedding()
	rec := linalg.MulTW(x, y, 1)
	if d := linalg.MaxAbsDiff(rec, m.ToDense()); d > 1e-6 {
		t.Fatalf("X·Yᵀ reconstruction diff %g", d)
	}
}

func TestUpdateBeforeBuildFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := testConfig(3)
	m := sparse.NewDynRow(6, 24, cfg.Blocks())
	fillLowRank(rng, m, 3, 0.05, 0.7)
	tr := mustCore(NewTree(m, cfg))
	if n := mustCore(tr.Update(bgt)); n != m.NumBlocks() {
		t.Fatalf("first Update rebuilt %d, want full build %d", n, m.NumBlocks())
	}
}

func TestRootBeforeBuildPanics(t *testing.T) {
	m := sparse.NewDynRow(3, 12, 4)
	tr := mustCore(NewTree(m, testConfig(2)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Root()
}

func TestEmptyMatrixBuild(t *testing.T) {
	cfg := testConfig(3)
	m := sparse.NewDynRow(5, 20, cfg.Blocks())
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	if tr.Root().Rank() != 0 {
		t.Fatalf("empty matrix produced rank %d", tr.Root().Rank())
	}
	if err := tr.ReconstructionError(); err != 0 {
		t.Fatalf("empty matrix reconstruction error %g", err)
	}
}

func TestDeepTree(t *testing.T) {
	// q=4, k=2 → 8 blocks; exercise multi-level upper caching.
	rng := rand.New(rand.NewSource(14))
	cfg := Config{Rank: 3, Branch: 2, Levels: 4, Delta: 0.65, Seed: 2}
	m := sparse.NewDynRow(9, 64, cfg.Blocks())
	fillLowRank(rng, m, 3, 0.02, 0.8)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	if err := tr.ReconstructionError(); err > 0.35*m.FrobNorm() {
		t.Fatalf("deep tree reconstruction error %g vs ‖M‖=%g", err, m.FrobNorm())
	}
	// Dirty one block; affected path = 3 upper merges (levels 2,3,root).
	lo, hi := m.BlockRange(5)
	for i := 0; i < 9; i++ {
		for c := lo; c < hi; c++ {
			m.Set(i, c, rng.NormFloat64()*2)
		}
	}
	mustCore(tr.Update(bgt))
	if tr.Stats().UpperRebuilt != 3 {
		t.Fatalf("deep tree upper rebuilds = %d, want 3", tr.Stats().UpperRebuilt)
	}
}

func TestUpdateIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cfg := testConfig(4)
	m := sparse.NewDynRow(8, 64, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.05, 0.7)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	for i := 0; i < 120; i++ {
		m.Set(rng.Intn(8), rng.Intn(64), rng.NormFloat64())
	}
	mustCore(tr.Update(bgt))
	before := tr.Embedding()
	if n := mustCore(tr.Update(bgt)); n != 0 {
		t.Fatalf("second Update rebuilt %d blocks without data changes", n)
	}
	if d := linalg.MaxAbsDiff(before, tr.Embedding()); d != 0 {
		t.Fatal("idempotent Update changed the embedding")
	}
}

func TestDeltaMonotonicity(t *testing.T) {
	// Larger δ must never rebuild more blocks than smaller δ on the same
	// churn (the Eqn. 2 threshold grows with δ).
	rng := rand.New(rand.NewSource(16))
	base := testConfig(4)
	var prev = 1 << 30
	for _, delta := range []float64{0.05, 0.3, 0.65, 1.2} {
		rng2 := rand.New(rand.NewSource(16))
		cfg := base
		cfg.Delta = delta
		m := sparse.NewDynRow(8, 64, cfg.Blocks())
		fillLowRank(rng2, m, 4, 0.05, 0.7)
		tr := mustCore(NewTree(m, cfg))
		must0t(tr.Build(bgt))
		for i := 0; i < 100; i++ {
			m.Set(rng2.Intn(8), rng2.Intn(64), rng2.NormFloat64())
		}
		n := mustCore(tr.Update(bgt))
		if n > prev {
			t.Fatalf("δ=%g rebuilt %d blocks > %d at smaller δ", delta, n, prev)
		}
		prev = n
	}
	_ = rng
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := testConfig(4)
	m := sparse.NewDynRow(8, 64, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.05, 0.7)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	data := tr.Snapshot().AppendEncoded(nil)
	if n := tr.Snapshot().EncodedLen(); len(data) != n {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(data), n)
	}
	snap, err := DecodeTreeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.AppendEncoded(nil), data) {
		t.Fatal("decode then encode is not the identity")
	}
	tr2, err := RestoreTree(m, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(tr.Embedding(), tr2.Embedding()); d != 0 {
		t.Fatal("restored tree embedding differs")
	}
	// Identical future behavior.
	for i := 0; i < 150; i++ {
		m.Set(rng.Intn(8), rng.Intn(64), rng.NormFloat64())
	}
	n1 := mustCore(tr.Update(bgt))
	// tr already consumed the dirty state (MarkRebuilt); only check the
	// update preserved a valid factorization.
	if n1 > 0 && tr.Root().Rank() == 0 {
		t.Fatal("update lost factorization")
	}
}

func TestRestoreTreeRejectsMismatchedBlocks(t *testing.T) {
	cfg := testConfig(3)
	m := sparse.NewDynRow(4, 32, cfg.Blocks())
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	snap := tr.Snapshot()
	other := sparse.NewDynRow(4, 32, cfg.Blocks()*2)
	if _, err := RestoreTree(other, cfg, snap); err == nil {
		t.Fatal("mismatched block count accepted")
	}
}

// TestRestoreTreeRejectsNonFiniteFactors: a NaN or Inf in any cached
// factor passes every shape check, so RestoreTree must look at the values.
func TestRestoreTreeRejectsNonFiniteFactors(t *testing.T) {
	cfg := testConfig(6)
	m := sparse.NewDynRow(40, 64, cfg.Blocks())
	fillLowRank(rand.New(rand.NewSource(5)), m, cfg.Rank, 0.01, 0.5)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	snap := tr.Snapshot()
	if _, err := RestoreTree(m, cfg, snap); err != nil {
		t.Fatalf("healthy snapshot refused: %v", err)
	}
	root := len(snap.Levels) - 1
	for name, d := range map[string]*linalg.Dense{
		"level-1 basis": snap.Levels[0][0].U, "level-2 basis": snap.Levels[1][1].U, "root basis": snap.Levels[root][0].U,
	} {
		for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
			at := len(d.Data) / 2
			keep := d.Data[at]
			d.Data[at] = bad
			if _, err := RestoreTree(m, cfg, snap); err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("%s holding %g: RestoreTree = %v, want a non-finite refusal", name, bad, err)
			}
			d.Data[at] = keep
		}
	}
	// The scalar factors: a +Inf tail energy or singular value is refused
	// like a NaN or negative one.
	for name, v := range map[string]*float64{"level-1 tail": &snap.Levels[0][0].Tail, "root Σ": &snap.Levels[root][0].S[0]} {
		keep := *v
		*v = math.Inf(1)
		if _, err := RestoreTree(m, cfg, snap); err == nil {
			t.Errorf("%s holding +Inf: RestoreTree accepted it", name)
		}
		*v = keep
	}
}

func TestStaticEmbeddingHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cfg := testConfig(3)
	m := sparse.NewDynRow(8, 48, cfg.Blocks())
	fillLowRank(rng, m, 3, 0, 1.0)
	csr := m.ToCSR()
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	x := tr.Embedding()
	if x.Rows != 8 || x.Cols != 3 {
		t.Fatalf("static embedding shape %d×%d", x.Rows, x.Cols)
	}
	root := tr.Root()
	y := RightEmbeddingOf(root, csr)
	if y.Rows != 48 || y.Cols != root.Rank() {
		t.Fatalf("right embedding shape %d×%d", y.Rows, y.Cols)
	}
	// Exact low-rank input: X·Yᵀ reconstructs the matrix.
	rec := linalg.MulTW(root.USqrtS(), y, 1)
	if d := linalg.MaxAbsDiff(rec, m.ToDense()); d > 1e-6 {
		t.Fatalf("static X·Yᵀ reconstruction diff %g", d)
	}
}

func TestForceRebuildBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cfg := testConfig(4)
	m := sparse.NewDynRow(8, 64, cfg.Blocks())
	fillLowRank(rng, m, 4, 0.05, 0.7)
	tr := mustCore(NewTree(m, cfg))
	// Before Build: falls back to a full build.
	if n := mustCore(tr.ForceRebuildBlock(bgt, 2)); n != m.NumBlocks() {
		t.Fatalf("pre-build ForceRebuildBlock rebuilt %d, want %d", n, m.NumBlocks())
	}
	// After Build: rebuilds exactly the one block and its ancestor path,
	// each ancestor merged exactly or through the upper-level gate.
	if n := mustCore(tr.ForceRebuildBlock(bgt, 2)); n != 1 {
		t.Fatalf("ForceRebuildBlock rebuilt %d, want 1", n)
	}
	if st := tr.Stats(); st.UpperRebuilt+st.UpperProjections != cfg.Levels-1 {
		t.Fatalf("upper nodes re-derived %+v, want %d", st, cfg.Levels-1)
	}
}

func TestAccessors(t *testing.T) {
	cfg := testConfig(2)
	m := sparse.NewDynRow(3, 16, cfg.Blocks())
	m.Set(0, 0, 1)
	tr := mustCore(NewTree(m, cfg))
	if s := tr.String(); s == "" {
		t.Fatal("String empty")
	}
}

func TestNewTreeRejectsBadConfig(t *testing.T) {
	m := sparse.NewDynRow(2, 8, 4)
	if _, err := NewTree(m, Config{Rank: 0, Branch: 2, Levels: 2}); err == nil {
		t.Fatal("expected error for invalid config")
	}
}

// TestBuildStaysExact: Build merges every upper node exactly, whatever the
// gate left in the caches, so a tree that has taken gated updates and a
// fresh tree over the same matrix at the same pass counter build the
// same root, bit for bit. Tree-SVD-S and FactorizeMatrix rebuild through
// Build.
func TestBuildStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cfg := testConfig(4)
	m := sparse.NewDynRow(12, 96, cfg.Blocks())
	fillLowRank(rng, m, 6, 0.05, 0.5)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	for step := 0; step < 24; step++ {
		for i := 0; i < 25; i++ {
			m.Set(rng.Intn(m.Rows()), rng.Intn(m.Cols()), rng.NormFloat64())
		}
		mustCore(tr.Update(bgt))
	}
	if tr.Metrics().UpperProjections.Load() == 0 {
		t.Fatal("no update took the gate's refined copy; the test needs some")
	}
	before := tr.Metrics().UpperProjections.Load()
	must0t(tr.Build(bgt))
	if got := tr.Metrics().UpperProjections.Load() - before; got != 0 || tr.Stats().UpperProjections != 0 {
		t.Fatalf("Build counted %d refined copies", got)
	}
	fresh := mustCore(NewTree(m, cfg))
	fresh.seq = tr.seq - 1 // Build advances it to the same pass counter
	must0t(fresh.Build(bgt))
	a, b := tr.Root(), fresh.Root()
	if !slices.Equal(a.S, b.S) || !slices.Equal(a.U.Data, b.U.Data) {
		t.Fatal("Build after gated updates differs from Build on a fresh tree")
	}
}
