// Differential/metamorphic fuzzer for the dynamic Tree-SVD pipeline
// (ISSUE 3 tentpole). It lives in the external test package of
// internal/check so it can drive the public treesvd facade — treesvd
// imports check for Config.SelfCheck, so the reverse import is only legal
// from a _test package.
//
// For every seed, an adversarial churn stream (self-loops, deletes,
// duplicate inserts, missing deletes, node growth, one batch straddling
// the rebuild threshold) is driven through ApplyEvents, and after every
// batch the incrementally maintained embedder is compared against a fresh
// New on an identically-evolved clone of the graph:
//
//   - the internal invariant auditors must stay green (Config.SelfCheck
//     runs them before every publish; Audit re-checks via the public API),
//   - the relative reconstruction error must stay within the fresh
//     rebuild's error plus the Eqn. 2 lazy slack √2·δ (Theorems 3.2/3.7)
//     plus a small drift margin for the PPR estimates themselves,
//   - the score matrices X·Yᵀ of both pipelines must agree relative to
//     their scale within the same tolerance, and
//   - an embedder restored from a mid-stream Save must track the
//     never-restarted one near-bitwise for the rest of the stream.
//
// Batches also interleave a poisoned batch (node id beyond MaxNodes) that
// must be rejected atomically, and every published snapshot is checked
// for ghost recommendations — harness-level regressions for the ISSUE 3
// bug classes.
package check_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"strconv"
	"testing"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/check"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/ppr"
)

// fuzzSeeds returns how many seeds to run: TREESVD_FUZZ_SEEDS when set
// (make fuzz SEEDS=n), otherwise 8 — the short-mode CI budget.
func fuzzSeeds(t *testing.T) int {
	if s := os.Getenv("TREESVD_FUZZ_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("TREESVD_FUZZ_SEEDS=%q: want a positive integer", s)
		}
		return n
	}
	return 8
}

// gram returns aᵀ·b (d_a×d_b) for row-major matrices with d columns.
func gram(a, b [][]float64) [][]float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	da, db := len(a[0]), len(b[0])
	out := make([][]float64, da)
	for i := range out {
		out[i] = make([]float64, db)
	}
	for r := range a {
		ar, br := a[r], b[r]
		for i := 0; i < da; i++ {
			if ar[i] == 0 {
				continue
			}
			for j := 0; j < db; j++ {
				out[i][j] += ar[i] * br[j]
			}
		}
	}
	return out
}

// traceProd returns tr(p·q) for small square-compatible matrices.
func traceProd(p, q [][]float64) float64 {
	var s float64
	for i := range p {
		for j := range p[i] {
			s += p[i][j] * q[j][i]
		}
	}
	return s
}

// scoreDistSq returns ‖Xa·Yaᵀ − Xb·Ybᵀ‖²_F by the Gram-trace identity —
// O((|S|+n)·d²) instead of materializing two |S|×n score matrices.
func scoreDistSq(xa, ya, xb, yb [][]float64) float64 {
	return traceProd(gram(xa, xa), gram(ya, ya)) -
		2*traceProd(gram(xa, xb), gram(yb, ya)) +
		traceProd(gram(xb, xb), gram(yb, yb))
}

// scoreNormSq returns ‖X·Yᵀ‖²_F.
func scoreNormSq(x, y [][]float64) float64 {
	return traceProd(gram(x, x), gram(y, y))
}

func TestDifferential(t *testing.T) {
	seeds := fuzzSeeds(t)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(strconv.Itoa(seed), func(t *testing.T) {
			t.Parallel()
			runDifferentialSeed(t, int64(seed))
		})
	}
}

func runDifferentialSeed(t *testing.T, seed int64) {
	ctx := context.Background()
	nodes := 30 + int(seed%4)*10
	maxNodes := nodes + 12
	if seed%3 == 0 {
		maxNodes = nodes // every third seed: no growth headroom, fixed id range
	}
	subset := []int32{0, 2, 5, 7, 11, int32(nodes - 1)}
	const rmax = 0.01 // rebuild threshold at 1/rmax = 100 events
	cfg := treesvd.Config{
		Dim: 8, RMax: rmax, Branch: 4, Levels: 3,
		MaxNodes: maxNodes, Seed: seed + 1, SelfCheck: true,
	}
	if seed%2 == 0 {
		cfg.Delta = 1e-12 // eager: every touched block re-factors, sharp compare
	}
	if seed%4 == 1 {
		cfg.Workers = 2
	}
	delta := cfg.Delta
	if delta == 0 {
		delta = treesvd.Defaults().Delta
	}

	initial, batches := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: nodes, MaxNodes: maxNodes, Degree: 3,
		Batches: 6, BatchSize: 24,
		SelfLoopFrac: 0.15, DeleteFrac: 0.2, DupFrac: 0.1, MissFrac: 0.1, GrowFrac: 0.1,
		BigBatch: 3, BigBatchSize: 120, // straddles the 1/rmax = 100 threshold
		Protect: subset,
		Seed:    seed,
	})

	emb, err := treesvd.New(initial.Clone(), subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mirror := initial.Clone() // evolves alongside emb for the fresh rebuilds
	var restored *treesvd.Embedder

	// Shadow proximity pipeline: the same incremental PPR maintenance the
	// embedder runs internally, mirrored here so the harness can measure
	// the exact estimate drift ‖M_inc − M_fresh‖_F — the term of the
	// equivalence bound the public API cannot expose. PPR pushes are
	// deterministic, so the shadow matrix tracks the embedder's bitwise
	// (asserted below through ProximityFrobNorm).
	params := ppr.Params{Alpha: 0.15, RMax: rmax, Workers: cfg.Workers}
	nblocks := core.Config{Rank: cfg.Dim, Branch: cfg.Branch, Levels: cfg.Levels, Delta: delta, Seed: cfg.Seed}.Blocks()
	shadowSub, err := ppr.NewSubset(initial.Clone(), subset, params)
	if err != nil {
		t.Fatal(err)
	}
	shadow := ppr.NewProximity(shadowSub, maxNodes, nblocks)
	// Tight shadow: a second PPR mirror at r_max = 1e-6, never rebuilt, so
	// every batch flows through the incremental corrections. Its residue
	// bound Σ|r| ≤ r_max·vol is ~10⁻⁴ here — tight enough that the exact
	// ground-truth audit resolves estimate corruption the working r_max of
	// 0.01 would hide inside legitimately parked residue mass.
	tightSub, err := ppr.NewSubset(initial.Clone(), subset,
		ppr.Params{Alpha: params.Alpha, RMax: 1e-6, Workers: cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	shadowApply := func(batch []treesvd.Event) error {
		if shadow.Sub.RebuildThreshold(len(batch)) {
			shadow.Sub.Engine.G.ApplyAll(batch)
			if err := shadow.Sub.Rebuild(ctx); err != nil {
				return err
			}
			shadow.RefreshAll()
			return nil
		}
		return shadow.ApplyEvents(ctx, batch)
	}
	// frobDiff computes ‖A − B‖_F over equal-shaped dense materializations.
	frobDiff := func(a, b *linalg.Dense) float64 {
		var sq float64
		for r := 0; r < a.Rows; r++ {
			ra, rb := a.Row(r), b.Row(r)
			for c := range ra {
				d := ra[c] - rb[c]
				sq += d * d
			}
		}
		return math.Sqrt(sq)
	}

	for b, batch := range batches {
		// Poison prelude: a batch referencing an id beyond capacity must be
		// rejected atomically — same version, graph untouched, and the
		// subsequent legitimate batch unaffected.
		if b == 2 {
			beforeVer, beforeEdges := emb.Version(), emb.Graph().NumEdges()
			poison := append([]treesvd.Event{{U: 0, V: int32(maxNodes), Type: treesvd.Insert}}, batch...)
			if _, err := emb.ApplyEvents(ctx, poison); err == nil {
				t.Fatalf("batch %d: poisoned batch accepted", b)
			}
			if emb.Version() != beforeVer || emb.Graph().NumEdges() != beforeEdges {
				t.Fatalf("batch %d: poisoned batch mutated state", b)
			}
		}

		if _, err := emb.ApplyEvents(ctx, batch); err != nil {
			t.Fatalf("batch %d: ApplyEvents: %v", b, err)
		}
		if err := emb.Audit(); err != nil {
			t.Fatalf("batch %d: audit: %v", b, err)
		}
		for _, ev := range batch {
			mirror.Apply(ev)
		}
		if got, want := emb.Graph().NumEdges(), mirror.NumEdges(); got != want {
			t.Fatalf("batch %d: embedder graph has %d edges, mirror %d", b, got, want)
		}

		// Differential core: fresh build on an identically-evolved graph.
		if err := shadowApply(batch); err != nil {
			t.Fatalf("batch %d: shadow pipeline: %v", b, err)
		}
		fresh, err := treesvd.New(mirror.Clone(), subset, cfg)
		if err != nil {
			t.Fatalf("batch %d: fresh New: %v", b, err)
		}
		mNorm := emb.ProximityFrobNorm()
		if mNorm == 0 {
			t.Fatalf("batch %d: zero proximity norm", b)
		}
		// The shadow pipeline must track the embedder's internal proximity
		// matrix exactly — same events, same deterministic maintenance.
		if d := math.Abs(shadow.M.FrobNorm() - mNorm); d > 1e-9*(1+mNorm) {
			t.Fatalf("batch %d: shadow proximity diverged from embedder: ‖M‖ %.12f vs %.12f",
				b, shadow.M.FrobNorm(), mNorm)
		}
		// Ground-truth audit: after any number of dynamic corrections, every
		// estimate must stay within its parked residue mass of the exact PPR
		// value — Algorithm 2's correctness criterion. This is what catches
		// maintenance bugs (like the self-loop corruption) that conserve
		// mass internally but walk the estimates away from the truth.
		if err := tightSub.ApplyEvents(ctx, batch); err != nil {
			t.Fatalf("batch %d: tight shadow: %v", b, err)
		}
		if err := check.PPRSubsetExact(tightSub); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		relInc := emb.ReconstructionError() / mNorm
		relFresh := fresh.ReconstructionError() / fresh.ProximityFrobNorm()
		// ‖M_inc − M_fresh‖_F: the dynamic Forward-Push drift — both
		// estimate sets satisfy the same r_max guarantee but park residues
		// differently, and the STRAP transform amplifies that by 1/r_max.
		freshSub, err := ppr.NewSubset(mirror.Clone(), subset, params)
		if err != nil {
			t.Fatalf("batch %d: fresh shadow subset: %v", b, err)
		}
		freshM := ppr.NewProximity(freshSub, maxNodes, nblocks)
		drift := frobDiff(shadow.M.ToDense(), freshM.M.ToDense())
		// Theorem 3.2/3.7 shape: each pipeline's score matrix X·Yᵀ equals
		// the rank-d projection U·Uᵀ·M of its own proximity matrix, so
		//
		//   ‖S_inc − S_fresh‖_F ≤ e_inc + ‖M_inc − M_fresh‖_F + e_fresh,
		//
		// with every term measured, not estimated. The lazy path's deferral
		// is already inside e_inc (bounded by the √2·δ trigger). The 2%
		// multiplicative slack covers float accumulation; the absolute term
		// covers the Gram-trace identity's cancellation floor — dist² is a
		// difference of O(scale²) traces, so dist itself is only resolved
		// down to about √eps·scale, even when the matrices agree bitwise.
		// The 5% multiplicative + 1e-7 absolute slack absorbs randomized-SVD
		// variance between the two pipelines' sketch draws when both errors
		// sit at float-noise level (e.g. right after a full rebuild).
		if tol := relFresh*1.05 + math.Sqrt2*delta + drift/mNorm + 1e-7; relInc > tol {
			t.Errorf("batch %d: incremental rel. reconstruction error %.3e exceeds fresh %.3e + lazy slack + drift %.3e (tol %.3e)",
				b, relInc, relFresh, drift/mNorm, tol)
		}
		xi, yi := emb.Embedding(), emb.RightEmbedding()
		xf, yf := fresh.Embedding(), fresh.RightEmbedding()
		scale := math.Sqrt(scoreNormSq(xf, yf))
		dist := math.Sqrt(math.Max(0, scoreDistSq(xi, yi, xf, yf)))
		eInc, eFresh := emb.ReconstructionError(), fresh.ReconstructionError()
		if tol := (eInc+eFresh+drift)*1.02 + 1e-5*(1+scale); dist > tol {
			t.Errorf("batch %d: score matrices diverge: ‖ΔS‖_F = %.3e > e_inc %.3e + e_fresh %.3e + drift %.3e (scale %.4f)",
				b, dist, eInc, eFresh, drift, scale)
		}

		// Ghost-node regression at harness level: recommendations must stay
		// within the ids that exist at this version.
		snap := emb.Snapshot()
		recs, err := snap.Recommend(subset[0], maxNodes)
		if err != nil {
			t.Fatalf("batch %d: Recommend: %v", b, err)
		}
		for _, r := range recs {
			if int(r.Node) >= snap.NumNodes() {
				t.Errorf("batch %d: ghost recommendation %d (graph has %d nodes)", b, r.Node, snap.NumNodes())
			}
		}

		// Persistence equivalence: restore from a mid-stream save and let
		// it track the never-restarted embedder for the rest of the stream.
		if b == 2 {
			var buf bytes.Buffer
			if err := emb.Save(&buf); err != nil {
				t.Fatalf("batch %d: Save: %v", b, err)
			}
			if restored, err = treesvd.Load(&buf); err != nil {
				t.Fatalf("batch %d: Load: %v", b, err)
			}
		} else if restored != nil {
			if _, err := restored.ApplyEvents(ctx, batch); err != nil {
				t.Fatalf("batch %d: restored ApplyEvents: %v", b, err)
			}
			xr := restored.Embedding()
			for i := range xi {
				for j := range xi[i] {
					if d := math.Abs(xi[i][j] - xr[i][j]); d > 1e-9*(1+math.Abs(xi[i][j])) {
						t.Fatalf("batch %d: restored embedder diverged at (%d,%d): %g vs %g",
							b, i, j, xr[i][j], xi[i][j])
					}
				}
			}
		}
	}
}
