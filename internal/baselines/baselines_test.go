package baselines

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/sparse"
)

func randGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n)
	for v := int32(0); int(v) < n; v++ {
		for {
			u := int32(rng.Intn(n))
			if u != v && g.InsertEdge(v, u) {
				break
			}
		}
	}
	for g.NumEdges() < m {
		g.InsertEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return g
}

func pickSubset(rng *rand.Rand, n, size int) []int32 {
	perm := rng.Perm(n)
	s := make([]int32, size)
	for i := range s {
		s[i] = int32(perm[i])
	}
	return s
}

var testParams = ppr.Params{Alpha: 0.15, RMax: 1e-3}

func TestDynPPEHashEmbeddingMatchesScratch(t *testing.T) {
	// The incremental re-hash must equal hashing the PPR vectors afresh.
	rng := rand.New(rand.NewSource(1))
	g := randGraph(rng, 40, 150)
	s := pickSubset(rng, 40, 6)
	d := mustBL(NewDynPPE(g, s, testParams, 8, 7))

	check := func() {
		for i := range s {
			want := make([]float64, 8)
			d.Sub.Fwd[i].Each(func(v int32, pv, _ float64) {
				dim, sign := d.hash(v)
				if arg := pv / testParams.RMax; arg > 1 {
					want[dim] += sign * math.Log(arg)
				}
			})
			got := d.Embedding().Row(i)
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-9 {
					t.Fatalf("row %d dim %d: %g vs scratch %g", i, j, got[j], want[j])
				}
			}
		}
	}
	check()

	// Apply events and re-check the incremental path.
	var events []graph.Event
	for len(events) < 25 {
		u, v := int32(rng.Intn(40)), int32(rng.Intn(40))
		if u != v && !g.HasEdge(u, v) {
			events = append(events, graph.Event{U: u, V: v, Type: graph.Insert})
		}
	}
	must0t(d.ApplyEvents(bgt, events))
	check()
}

func TestDynPPEDeterministicHash(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randGraph(rng, 20, 60)
	s := pickSubset(rng, 20, 4)
	d1 := mustBL(NewDynPPE(g.Clone(), s, testParams, 8, 5))
	d2 := mustBL(NewDynPPE(g.Clone(), s, testParams, 8, 5))
	// Hash accumulation iterates maps, so float reassociation allows
	// ~1e-16 jitter; everything beyond that is nondeterminism.
	if diff := linalg.MaxAbsDiff(d1.Embedding(), d2.Embedding()); diff > 1e-12 {
		t.Fatalf("same seed, different embeddings: %g", diff)
	}
	d3 := mustBL(NewDynPPE(g.Clone(), s, testParams, 8, 6))
	if diff := linalg.MaxAbsDiff(d1.Embedding(), d3.Embedding()); diff == 0 {
		t.Fatal("different seeds produced identical embeddings")
	}
}

func TestSubsetSTRAPShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGraph(rng, 30, 120)
	s := pickSubset(rng, 30, 5)
	prox := ppr.NewProximity(mustBL(ppr.NewSubset(g, s, testParams)), 30, 16)
	res := mustBL(STRAP(prox.M.ToCSR(), 4, 1, 0))
	if res.Left.Rows != 5 || res.Left.Cols > 4 {
		t.Fatalf("left shape %d×%d", res.Left.Rows, res.Left.Cols)
	}
	if res.Right.Rows != 30 || res.Right.Cols != res.Left.Cols {
		t.Fatalf("right shape %d×%d", res.Right.Rows, res.Right.Cols)
	}
	// X·Yᵀ must approximate the proximity matrix (both sides √Σ-scaled).
	m := prox.M.ToDense()
	rec := linalg.MulTW(res.Left, res.Right, 1)
	best := linalg.SVDW(m, 1).TailEnergy(m.FrobNorm(), 4)
	if got := linalg.Sub(rec, m).FrobNorm(); got > 1.2*best+1e-9 {
		t.Fatalf("STRAP reconstruction %g vs optimal %g", got, best)
	}
}

func TestSubsetSTRAPDynamicUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randGraph(rng, 25, 100)
	s := pickSubset(rng, 25, 4)
	prox := ppr.NewProximity(mustBL(ppr.NewSubset(g, s, testParams)), 25, 16)
	before := mustBL(STRAP(prox.M.ToCSR(), 3, 1, 0))
	var events []graph.Event
	for len(events) < 20 {
		u, v := int32(rng.Intn(25)), int32(rng.Intn(25))
		if u != v && !g.HasEdge(u, v) {
			events = append(events, graph.Event{U: u, V: v, Type: graph.Insert})
		}
	}
	must0t(prox.RepairApplied(bgt, ppr.ApplyAll(prox.Sub.Engine.G, events)))
	after := mustBL(STRAP(prox.M.ToCSR(), 3, 1, 0))
	if linalg.MaxAbsDiff(before.Left, after.Left) == 0 {
		t.Fatal("embedding unchanged after 20 insertions")
	}
}

func TestGlobalSTRAP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randGraph(rng, 25, 100)
	gs := NewGlobalSTRAP(g, ppr.Params{Alpha: 0.15, RMax: 1e-2}, 4, 1)
	res := mustBL(gs.Factorize())
	if res.Left.Rows != 25 {
		t.Fatalf("global left rows %d, want 25", res.Left.Rows)
	}
	s := pickSubset(rng, 25, 5)
	sub := SubsetRows(res.Left, s)
	if sub.Rows != 5 || sub.Cols != res.Left.Cols {
		t.Fatalf("subset rows shape %d×%d", sub.Rows, sub.Cols)
	}
	for i, v := range s {
		if linalg.Dot(sub.Row(i), sub.Row(i)) != linalg.Dot(res.Left.Row(int(v)), res.Left.Row(int(v))) {
			t.Fatal("SubsetRows copied wrong rows")
		}
	}
}

func TestFrequentDirectionsGuarantee(t *testing.T) {
	// FD guarantee: ‖AᵀA − BᵀB‖₂ ≤ ‖A‖²_F / ℓ. The spectral norm is
	// bounded by the Frobenius norm, which we can compute directly.
	rng := rand.New(rand.NewSource(6))
	rows, cols, l := 40, 15, 8
	b := sparse.NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.5 {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	m := b.Build()
	fd := NewFrequentDirections(l, cols)
	for i := 0; i < rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		fd.AppendSparse(m.ColIdx[lo:hi], m.Val[lo:hi])
	}
	sk := fd.Sketch()
	if sk.Rows != l || sk.Cols != cols {
		t.Fatalf("sketch shape %d×%d", sk.Rows, sk.Cols)
	}
	ata := linalg.GramW(m.ToDense(), 1)
	btb := linalg.GramW(sk, 1)
	diff := linalg.Sub(ata, btb)
	frob := m.FrobNorm()
	// Spectral-norm bound via largest eigenvalue of the symmetric diff.
	lam, _ := linalg.SymEigW(diff, 1)
	spec := 0.0
	for _, x := range lam {
		if a := math.Abs(x); a > spec {
			spec = a
		}
	}
	if spec > frob*frob/float64(l)+1e-9 {
		t.Fatalf("FD bound violated: ‖AᵀA−BᵀB‖₂=%g > ‖A‖²_F/ℓ=%g", spec, frob*frob/float64(l))
	}
}

func TestFREDEEmbeddingShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := sparse.NewBuilder(10, 30)
	for i := 0; i < 10; i++ {
		for j := 0; j < 30; j++ {
			if rng.Float64() < 0.4 {
				b.Add(i, j, math.Abs(rng.NormFloat64()))
			}
		}
	}
	res := FREDE(b.Build(), 4)
	if res.Left.Rows != 10 || res.Right.Rows != 30 {
		t.Fatalf("FREDE shapes left %d right %d", res.Left.Rows, res.Right.Rows)
	}
	if res.Left.Cols != res.Right.Cols {
		t.Fatal("FREDE factor widths differ")
	}
}

func TestFREDEEmptyMatrix(t *testing.T) {
	res := FREDE(sparse.NewBuilder(5, 12).Build(), 3)
	if res.Left.Rows != 5 || res.Right.Rows != 12 {
		t.Fatal("FREDE empty-matrix shapes wrong")
	}
}

func TestRandNEShapesAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randGraph(rng, 30, 120)
	cfg := DefaultRandNEConfig(8, 3)
	e1 := RandNE(g, cfg)
	e2 := RandNE(g, cfg)
	if e1.Rows != 30 || e1.Cols != 8 {
		t.Fatalf("RandNE shape %d×%d", e1.Rows, e1.Cols)
	}
	if linalg.MaxAbsDiff(e1, e2) != 0 {
		t.Fatal("RandNE not deterministic for fixed seed")
	}
	// Rows are unit-normalized.
	for i := 0; i < 30; i++ {
		n := linalg.Norm2(e1.Row(i))
		if n != 0 && math.Abs(n-1) > 1e-9 {
			t.Fatalf("row %d norm %g", i, n)
		}
	}
}

func TestRandNECapturesNeighborhoods(t *testing.T) {
	// Two nodes with identical out-neighborhoods get near-identical
	// high-order signal; a node with disjoint links should differ more.
	g := graph.New(8)
	// 0 and 1 point to {2,3,4}; 5 points to {6,7}.
	for _, v := range []int32{2, 3, 4} {
		g.InsertEdge(0, v)
		g.InsertEdge(1, v)
	}
	g.InsertEdge(5, 6)
	g.InsertEdge(5, 7)
	g.InsertEdge(6, 0)
	g.InsertEdge(7, 1)
	g.InsertEdge(2, 5)
	g.InsertEdge(3, 5)
	g.InsertEdge(4, 5)
	cfg := RandNEConfig{Dim: 6, Weights: []float64{0, 1, 10}, Seed: 4}
	e := RandNE(g, cfg)
	simTwin := linalg.Dot(e.Row(0), e.Row(1))
	simFar := linalg.Dot(e.Row(0), e.Row(5))
	if simTwin <= simFar {
		t.Fatalf("structural twins less similar (%g) than unrelated nodes (%g)", simTwin, simFar)
	}
}
