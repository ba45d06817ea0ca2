package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/obs"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// churnTree builds a tree over a low-rank matrix with the incremental
// update path enabled and returns it with its rng.
func churnTree(t *testing.T, cfg Config) (*Tree, *sparse.DynRow, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	m := sparse.NewDynRow(40, 64, cfg.Blocks())
	fillLowRank(rng, m, cfg.Rank, 0.01, 0.5)
	tr := mustCore(NewTree(m, cfg))
	must0t(tr.Build(bgt))
	return tr, m, rng
}

// perturbBlock nudges a handful of existing entries of block j just hard
// enough to trip the Eqn. 2 trigger at the given δ while keeping the delta
// small relative to it (eligible for the incremental path).
func perturbBlock(m *sparse.DynRow, rng *rand.Rand, j int, scale float64, touched int) {
	lo, hi := m.BlockRange(j)
	for i := 0; i < touched; i++ {
		r := rng.Intn(m.Rows())
		c := lo + rng.Intn(hi-lo)
		m.Set(r, c, m.Get(r, c)+scale*rng.NormFloat64())
	}
}

func TestUpdatePathAbsorbsSmallDeltas(t *testing.T) {
	cfg := testConfig(6)
	cfg.Delta = 0.001 // sensitive trigger so modest churn violates
	cfg.SVDUpdate = true
	// Wide-open thresholds: every violating block with cached factors goes
	// through the incremental path, making the hit deterministic.
	cfg.UpdateMaxRel = 1e6
	cfg.UpdateTailFrac = 1e6
	tr, m, rng := churnTree(t, cfg)

	var events []obs.TraceEvent
	tr.SetTrace(func(ev obs.TraceEvent) { events = append(events, ev) })
	totalUpdated := 0
	for round := 0; round < 6; round++ {
		perturbBlock(m, rng, round%tr.m.NumBlocks(), 0.05, 3)
		if _, err := tr.Update(bgt); err != nil {
			t.Fatal(err)
		}
		st := tr.Stats()
		totalUpdated += st.Level1Updated
		if err := tr.AuditShapes(); err != nil {
			t.Fatal(err)
		}
		if err := tr.AuditBlocks(); err != nil {
			t.Fatal(err)
		}
	}
	if totalUpdated == 0 {
		t.Fatal("incremental path never fired under small-delta churn")
	}
	if tr.met.BlocksUpdated.Load() != uint64(totalUpdated) {
		t.Fatalf("metrics count %d updates, stats %d", tr.met.BlocksUpdated.Load(), totalUpdated)
	}
	sawUpdate := false
	for _, ev := range events {
		if ev.Kind == obs.TraceBlockUpdate {
			sawUpdate = true
		}
	}
	if !sawUpdate {
		t.Fatal("no TraceBlockUpdate event despite Level1Updated > 0")
	}
	// The factorization must keep tracking the live matrix: its residual
	// stays bounded by the per-block tails (triangle inequality over
	// blocks, with merge truncation slack).
	var tailSq, frob float64
	for j := 0; j < m.NumBlocks(); j++ {
		tailSq += tr.level1[j].tail * tr.level1[j].tail
		f := m.BlockFrobNorm(j)
		frob += f * f
	}
	recon := tr.ReconstructionError()
	if recon > 3*math.Sqrt(tailSq)+0.5*math.Sqrt(frob) {
		t.Fatalf("reconstruction error %g implausibly large after updates", recon)
	}
}

func TestUpdatePathDisabledIsUnchanged(t *testing.T) {
	run := func(enable bool) [][]float64 {
		cfg := testConfig(6)
		cfg.Delta = 0.001
		cfg.SVDUpdate = enable
		// Tiny tail budget: every eligible block falls back, so the
		// enabled run must still recompute exactly like the disabled one.
		cfg.UpdateTailFrac = 1e-300
		tr, m, rng := churnTree(t, cfg)
		for round := 0; round < 4; round++ {
			perturbBlock(m, rng, round%m.NumBlocks(), 0.05, 3)
			if _, err := tr.Update(bgt); err != nil {
				t.Fatal(err)
			}
		}
		emb := tr.Embedding()
		out := make([][]float64, emb.Rows)
		for i := range out {
			out[i] = append([]float64(nil), emb.Row(i)...)
		}
		return out
	}
	on, off := run(true), run(false)
	for i := range on {
		for k := range on[i] {
			if on[i][k] != off[i][k] {
				t.Fatalf("fallback-only run diverges from updates-off at (%d,%d): %g vs %g",
					i, k, on[i][k], off[i][k])
			}
		}
	}
}

func TestUpdateFallbackOnTailBudget(t *testing.T) {
	cfg := testConfig(6)
	cfg.Delta = 0.001
	cfg.SVDUpdate = true
	cfg.UpdateMaxRel = 1e6      // everything is eligible...
	cfg.UpdateTailFrac = 1e-300 // ...but there is no error budget: always fall back
	tr, m, rng := churnTree(t, cfg)
	for round := 0; round < 6; round++ {
		perturbBlock(m, rng, round%m.NumBlocks(), 0.05, 3)
		if _, err := tr.Update(bgt); err != nil {
			t.Fatal(err)
		}
		if tr.Stats().Level1Updated != 0 {
			t.Fatal("update committed despite zero tail budget")
		}
	}
	if tr.met.UpdateFallbacks.Load() == 0 {
		t.Fatal("conditioning fallback never triggered under zero tail budget")
	}
	if tr.met.BlocksUpdated.Load() != 0 {
		t.Fatal("BlocksUpdated counted with zero tail budget")
	}
	// Fallbacks reset provenance: every cache must replay cleanly.
	if err := tr.AuditBlocks(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdatePathSnapshotRoundTrip(t *testing.T) {
	cfg := testConfig(6)
	cfg.Delta = 0.001
	cfg.SVDUpdate = true
	cfg.UpdateMaxRel = 1e6
	cfg.UpdateTailFrac = 1e6
	tr, m, rng := churnTree(t, cfg)
	fired := 0
	for round := 0; fired == 0 && round < 10; round++ {
		perturbBlock(m, rng, round%m.NumBlocks(), 0.05, 3)
		if _, err := tr.Update(bgt); err != nil {
			t.Fatal(err)
		}
		fired += tr.Stats().Level1Updated
	}
	if fired == 0 {
		t.Fatal("no incremental update fired; cannot test round trip")
	}
	restored, err := RestoreTree(m, cfg, tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Restored caches keep their factors and error budgets bit-exact.
	for j := range tr.level1 {
		a, b := tr.level1[j], restored.level1[j]
		if (a.fac == nil) != (b.fac == nil) {
			t.Fatalf("block %d factor retention lost in round trip", j)
		}
		if a.updErr != b.updErr || a.tail != b.tail || a.seq != b.seq {
			t.Fatalf("block %d cache metadata drifted in round trip", j)
		}
	}
	if err := restored.AuditBlocks(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotWithoutUpdatesOmitsFactors(t *testing.T) {
	cfg := testConfig(6)
	tr, _, _ := churnTree(t, cfg)
	snap := tr.Snapshot()
	if snap.Level1U != nil || snap.Level1S != nil || snap.Level1V != nil || snap.Level1UpdErr != nil {
		t.Fatal("updates-off snapshot carries factor slices")
	}
}

func TestConfigValidateUpdateKnobs(t *testing.T) {
	base := testConfig(4)
	for _, mut := range []func(*Config){
		func(c *Config) { c.UpdateMaxRel = -0.1 },
		func(c *Config) { c.UpdateTailFrac = -1 },
	} {
		c := base
		mut(&c)
		if c.Validate() == nil {
			t.Fatalf("accepted bad config %+v", c)
		}
	}
	c := base
	c.SVDUpdate = true
	if c.Validate() != nil {
		t.Fatal("rejected valid update config")
	}
	if c.updateMaxRel() != DefaultUpdateMaxRel || c.updateTailFrac() != DefaultUpdateTailFrac {
		t.Fatal("zero knobs do not resolve to defaults")
	}
	c.UpdateMaxRel, c.UpdateTailFrac = 0.3, 0.1
	if c.updateMaxRel() != 0.3 || c.updateTailFrac() != 0.1 {
		t.Fatal("explicit knobs not honored")
	}
}

// TestRestoreTreeRejectsNonFiniteFactors is the regression for ROADMAP
// item 6's reproduced defect: a snapshot whose shapes are right but whose
// cached factors hold a NaN or Inf used to restore (and audit) cleanly and
// blow up in the first merge over it. Every dense factor is covered, the
// retained level-1 U/V of the update path included.
func TestRestoreTreeRejectsNonFiniteFactors(t *testing.T) {
	cfg := testConfig(6)
	cfg.SVDUpdate = true
	tr, m, _ := churnTree(t, cfg)
	snap := tr.Snapshot()
	if _, err := RestoreTree(m, cfg, snap); err != nil {
		t.Fatalf("healthy snapshot refused: %v", err)
	}
	last := len(snap.Level1US) - 1
	for name, d := range map[string]*linalg.Dense{
		"Level1US": snap.Level1US[0], "Level1U": snap.Level1U[last], "Level1V": snap.Level1V[0],
		"Upper": snap.Upper[0][1], "RootU": snap.RootU, "RootV": snap.RootV,
	} {
		if d == nil {
			t.Fatalf("%s: snapshot does not carry the factor under test", name)
		}
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
}
