package ppr

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
)

func buildSubset(rng *rand.Rand, n, m, subsetSize int, params Params) (*graph.Graph, []int32, *Subset) {
	g := randGraph(rng, n, m)
	perm := rng.Perm(n)
	s := make([]int32, subsetSize)
	for i := range s {
		s[i] = int32(perm[i])
	}
	return g, s, mustPPR(NewSubset(g, s, params))
}

// proximityWant computes the expected M value directly from the states.
func proximityWant(sub *Subset, i int, v int32) float64 {
	rmax := sub.Engine.Params.RMax
	arg := (sub.Fwd[i].Est(v) + sub.Rev[i].Est(v)) / rmax
	if arg <= 1 {
		return 0
	}
	return math.Log(arg)
}

func checkProximityConsistent(t *testing.T, pr *Proximity) {
	t.Helper()
	sub := pr.Sub
	n := pr.M.Cols()
	for i := range sub.S {
		for v := 0; v < n; v++ {
			want := proximityWant(sub, i, int32(v))
			if got := pr.M.Get(i, v); math.Abs(got-want) > 1e-12 {
				t.Fatalf("M[%d][%d] = %g, want %g", i, v, got, want)
			}
		}
	}
}

func TestProximityInitialBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	_, _, sub := buildSubset(rng, 30, 120, 5, Params{Alpha: 0.15, RMax: 1e-3})
	pr := NewProximity(sub, 30, 4)
	checkProximityConsistent(t, pr)
	if pr.M.NNZ() == 0 {
		t.Fatal("proximity matrix is empty")
	}
}

func TestProximityNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, _, sub := buildSubset(rng, 25, 100, 4, Params{Alpha: 0.2, RMax: 1e-3})
	pr := NewProximity(sub, 25, 4)
	d := pr.M.ToDense()
	for _, v := range d.Data {
		if v < 0 {
			t.Fatalf("negative proximity entry %g", v)
		}
	}
}

func TestProximityIncrementalMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g, _, sub := buildSubset(rng, 30, 110, 6, Params{Alpha: 0.15, RMax: 1e-3})
	pr := NewProximity(sub, 30, 4)

	// Apply a few event batches incrementally.
	for batch := 0; batch < 3; batch++ {
		var events []graph.Event
		for len(events) < 15 {
			u, v := int32(rng.Intn(30)), int32(rng.Intn(30))
			if rng.Float64() < 0.75 {
				if u != v && !g.HasEdge(u, v) {
					events = append(events, graph.Event{U: u, V: v, Type: graph.Insert})
				}
			} else if g.HasEdge(u, v) && g.OutDeg(u) > 1 {
				events = append(events, graph.Event{U: u, V: v, Type: graph.Delete})
			}
		}
		must0t(applyEvents(pr, events))
		checkProximityConsistent(t, pr)
	}
}

func TestProximityRebuildRefreshAll(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, _, sub := buildSubset(rng, 20, 80, 4, Params{Alpha: 0.2, RMax: 1e-3})
	pr := NewProximity(sub, 20, 4)
	before := pr.M.ToDense()

	// Mutate the graph behind the subset's back, then rebuild from scratch.
	for i := 0; i < 10; i++ {
		g.InsertEdge(int32(rng.Intn(20)), int32(rng.Intn(20)))
	}
	must0t(sub.Rebuild(bgt))
	pr.RefreshAll()
	checkProximityConsistent(t, pr)
	// The matrix should actually have changed.
	if linalg.MaxAbsDiff(before, pr.M.ToDense()) == 0 {
		t.Fatal("proximity unchanged after graph mutation + rebuild")
	}
}

func TestProximityDynamicVsScratchClose(t *testing.T) {
	// End-to-end: proximity maintained incrementally through events stays
	// close (not identical — push is approximate) to a scratch-built one.
	rng := rand.New(rand.NewSource(14))
	params := Params{Alpha: 0.15, RMax: 1e-4}
	g, s, sub := buildSubset(rng, 40, 160, 6, params)
	pr := NewProximity(sub, 40, 4)

	var events []graph.Event
	for len(events) < 30 {
		u, v := int32(rng.Intn(40)), int32(rng.Intn(40))
		if u != v && !g.HasEdge(u, v) {
			events = append(events, graph.Event{U: u, V: v, Type: graph.Insert})
		}
	}
	must0t(applyEvents(pr, events))

	subScratch := mustPPR(NewSubset(g, s, params))
	prScratch := NewProximity(subScratch, 40, 4)

	dyn := pr.M.ToDense()
	scr := prScratch.M.ToDense()
	// Tolerance: log-scale entries built from estimates that differ by at
	// most the residue mass; allow a loose but meaningful band.
	diff := linalg.Sub(dyn, scr).FrobNorm()
	base := scr.FrobNorm()
	if diff > 0.15*base {
		t.Fatalf("dynamic vs scratch proximity drift too large: %g vs base %g", diff, base)
	}
}

func TestSubsetRejectsOutOfRange(t *testing.T) {
	g := graph.New(3)
	g.InsertEdge(0, 1)
	if _, err := NewSubset(g, []int32{5}, Params{Alpha: 0.2, RMax: 0.1}); err == nil {
		t.Fatal("expected error on out-of-range subset node")
	}
}
