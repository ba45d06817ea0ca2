package ppr

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
)

// randGraph builds a random directed graph where every node has at least
// one out-edge (matching the paper's mature-graph regime).
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

// exactPPR computes π_s for every node by power iteration on the α-decay
// walk, using the same dangling self-loop convention as the push engine.
func exactPPR(g *graph.Graph, s int32, alpha float64, dir graph.Direction) []float64 {
	n := g.NumNodes()
	x := make([]float64, n)
	next := make([]float64, n)
	x[s] = 1
	// π_s = α Σ_t (1−α)^t walk-distribution_t; iterate the distribution.
	pi := make([]float64, n)
	weight := alpha
	for iter := 0; iter < 300; iter++ {
		for i := range pi {
			pi[i] += weight * x[i]
		}
		for i := range next {
			next[i] = 0
		}
		for u := int32(0); int(u) < n; u++ {
			if x[u] == 0 {
				continue
			}
			nbrs := g.Neighbors(u, dir)
			if len(nbrs) == 0 {
				next[u] += x[u] // dangling self-loop
				continue
			}
			share := x[u] / float64(len(nbrs))
			for _, v := range nbrs {
				next[v] += share
			}
		}
		x, next = next, x
		weight *= 1 - alpha
		if weight < 1e-14 {
			break
		}
	}
	return pi
}

func TestPushEstimateWithinResidueBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randGraph(rng, 40, 160)
	params := Params{Alpha: 0.15, RMax: 1e-4}
	e := mustPPR(NewEngine(g, params))
	for _, dir := range []graph.Direction{graph.Forward, graph.Reverse} {
		st := NewState(3, dir)
		e.Push(st)
		pi := exactPPR(g, 3, params.Alpha, dir)
		bound := st.ResidueL1()
		for u := int32(0); int(u) < 40; u++ {
			if d := math.Abs(st.P[u] - pi[u]); d > bound+1e-9 {
				t.Fatalf("dir %v node %d: |p−π| = %g > Σ|r| = %g", dir, u, d, bound)
			}
		}
		// Mass conservation: Σp + Σr == 1 for a fresh push.
		var total float64
		for _, v := range st.P {
			total += v
		}
		for _, v := range st.R {
			total += v
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("dir %v: p+r mass = %g, want 1", dir, total)
		}
	}
}

func TestPushInvariant(t *testing.T) {
	// After any number of pushes: π_s(u) = p_s(u) + Σ_v r_s(v)·π_v(u).
	rng := rand.New(rand.NewSource(2))
	g := randGraph(rng, 25, 75)
	params := Params{Alpha: 0.2, RMax: 1e-3}
	e := mustPPR(NewEngine(g, params))
	st := NewState(7, graph.Forward)
	e.Push(st)
	piAll := make([][]float64, 25)
	for v := int32(0); v < 25; v++ {
		piAll[v] = exactPPR(g, v, params.Alpha, graph.Forward)
	}
	for u := int32(0); u < 25; u++ {
		rhs := st.P[u]
		for v, r := range st.R {
			rhs += r * piAll[v][u]
		}
		if d := math.Abs(rhs - piAll[7][u]); d > 1e-6 {
			t.Fatalf("invariant violated at %d: %g vs %g", u, rhs, piAll[7][u])
		}
	}
}

func TestPushTerminatesBelowThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGraph(rng, 50, 250)
	params := Params{Alpha: 0.15, RMax: 1e-3}
	e := mustPPR(NewEngine(g, params))
	st := NewState(0, graph.Forward)
	e.Push(st)
	for u, r := range st.R {
		if math.Abs(r) > params.RMax*math.Max(float64(g.OutDeg(u)), 1)+1e-12 {
			t.Fatalf("node %d residue %g above threshold", u, r)
		}
	}
}

func TestDynamicPushMatchesScratch(t *testing.T) {
	// The central Algorithm 2 property: after incremental updates, the
	// estimate is still within Σ|r| of the true PPR on the new graph.
	rng := rand.New(rand.NewSource(4))
	g := randGraph(rng, 30, 120)
	params := Params{Alpha: 0.15, RMax: 1e-4}
	e := mustPPR(NewEngine(g, params))
	st := NewState(5, graph.Forward)
	e.Push(st)

	// A batch of random events (inserts and deletes), keeping min
	// out-degree ≥ 1 so the formulas stay exact.
	var events []graph.Event
	for len(events) < 40 {
		u, v := int32(rng.Intn(30)), int32(rng.Intn(30))
		if rng.Float64() < 0.7 {
			if !g.HasEdge(u, v) && u != v {
				events = append(events, graph.Event{U: u, V: v, Type: graph.Insert})
				g.InsertEdge(u, v)
				e.AdjustEvent(st, graph.Event{U: u, V: v, Type: graph.Insert})
			}
		} else if g.HasEdge(u, v) && g.OutDeg(u) > 1 {
			events = append(events, graph.Event{U: u, V: v, Type: graph.Delete})
			g.DeleteEdge(u, v)
			e.AdjustEvent(st, graph.Event{U: u, V: v, Type: graph.Delete})
		}
	}
	e.Push(st)

	pi := exactPPR(g, 5, params.Alpha, graph.Forward)
	bound := st.ResidueL1() + 1e-9
	for u := int32(0); u < 30; u++ {
		if d := math.Abs(st.P[u] - pi[u]); d > bound {
			t.Fatalf("after %d events, node %d: |p−π| = %g > bound %g", len(events), u, d, bound)
		}
	}
}

func TestDynamicPushInvariantExact(t *testing.T) {
	// Stronger check: the push invariant itself holds exactly after the
	// Algorithm 2 adjustments (before and after re-pushing).
	rng := rand.New(rand.NewSource(5))
	g := randGraph(rng, 20, 70)
	params := Params{Alpha: 0.25, RMax: 1e-3}
	e := mustPPR(NewEngine(g, params))
	st := NewState(2, graph.Forward)
	e.Push(st)

	// One insert event.
	var u, v int32
	for {
		u, v = int32(rng.Intn(20)), int32(rng.Intn(20))
		if u != v && !g.HasEdge(u, v) {
			break
		}
	}
	g.InsertEdge(u, v)
	e.AdjustEvent(st, graph.Event{U: u, V: v, Type: graph.Insert})

	piAll := make([][]float64, 20)
	for w := int32(0); w < 20; w++ {
		piAll[w] = exactPPR(g, w, params.Alpha, graph.Forward)
	}
	for w := int32(0); w < 20; w++ {
		rhs := st.P[w]
		for x, r := range st.R {
			rhs += r * piAll[x][w]
		}
		if d := math.Abs(rhs - piAll[2][w]); d > 1e-6 {
			t.Fatalf("post-adjust invariant violated at %d: %g vs %g (event %d→%d)", w, rhs, piAll[2][w], u, v)
		}
	}
}

func TestSinkTransitionInvariant(t *testing.T) {
	// A sink node with settled mass gains its first out-edge, then loses
	// it again: the push invariant must hold exactly through both
	// transitions under the self-loop convention.
	alpha := 0.2
	params := Params{Alpha: alpha, RMax: 1e-4}
	g := graph.New(4)
	g.InsertEdge(0, 1)
	g.InsertEdge(1, 2)
	g.InsertEdge(2, 0)
	g.InsertEdge(2, 3)
	// Node 3 is a sink reachable from everywhere.
	e := mustPPR(NewEngine(g, params))
	st := NewState(0, graph.Forward)
	e.Push(st)
	if st.P[3] == 0 {
		t.Fatal("test premise broken: sink holds no mass")
	}

	checkInvariant := func(label string) {
		t.Helper()
		piAll := make([][]float64, 4)
		for v := int32(0); v < 4; v++ {
			piAll[v] = exactPPR(g, v, alpha, graph.Forward)
		}
		for u := int32(0); u < 4; u++ {
			rhs := st.P[u]
			for v, r := range st.R {
				rhs += r * piAll[v][u]
			}
			if d := math.Abs(rhs - piAll[0][u]); d > 1e-6 {
				t.Fatalf("%s: invariant violated at %d: %g vs %g", label, u, rhs, piAll[0][u])
			}
		}
	}

	// Sink gains its first out-edge.
	g.InsertEdge(3, 1)
	e.AdjustEvent(st, graph.Event{U: 3, V: 1, Type: graph.Insert})
	checkInvariant("after sink→deg1 insert")
	e.Push(st)
	checkInvariant("after repair push")

	// And becomes a sink again.
	g.DeleteEdge(3, 1)
	e.AdjustEvent(st, graph.Event{U: 3, V: 1, Type: graph.Delete})
	checkInvariant("after deg1→sink delete")
	e.Push(st)
	checkInvariant("after final push")
}

func TestLongStreamWithSinkChurn(t *testing.T) {
	// Stress: a growing stream where nodes regularly transition in and
	// out of sink state. The estimate must stay within the residue bound
	// of the exact PPR at the end.
	rng := rand.New(rand.NewSource(99))
	params := Params{Alpha: 0.15, RMax: 1e-4}
	g := graph.New(30)
	for v := int32(0); v < 10; v++ {
		g.InsertEdge(v, (v+1)%10)
	}
	e := mustPPR(NewEngine(g, params))
	st := NewState(0, graph.Forward)
	e.Push(st)
	for step := 0; step < 400; step++ {
		u := int32(rng.Intn(30))
		v := int32(rng.Intn(30))
		if u == v {
			continue
		}
		if rng.Float64() < 0.65 {
			if g.InsertEdge(u, v) {
				e.AdjustEvent(st, graph.Event{U: u, V: v, Type: graph.Insert})
			}
		} else if g.HasEdge(u, v) {
			g.DeleteEdge(u, v)
			e.AdjustEvent(st, graph.Event{U: u, V: v, Type: graph.Delete})
		}
		if step%50 == 49 {
			e.Push(st)
		}
	}
	e.Push(st)
	pi := exactPPR(g, 0, params.Alpha, graph.Forward)
	bound := st.ResidueL1() + 1e-6
	for u := int32(0); u < 30; u++ {
		if d := math.Abs(st.P[u] - pi[u]); d > bound {
			t.Fatalf("after sink churn, node %d: |p−π| = %g > bound %g", u, d, bound)
		}
	}
}

func TestAdjustEventNoEstimateIsNoOp(t *testing.T) {
	g := graph.New(3)
	g.InsertEdge(0, 1)
	g.InsertEdge(1, 2)
	e := mustPPR(NewEngine(g, Params{Alpha: 0.2, RMax: 0.1}))
	st := NewState(0, graph.Forward)
	// No push yet: p is empty, so any adjustment must be a no-op.
	g.InsertEdge(2, 0)
	e.AdjustEvent(st, graph.Event{U: 2, V: 0, Type: graph.Insert})
	if len(st.P) != 0 || len(st.R) != 1 || st.R[0] != 1 {
		t.Fatal("adjustment with zero estimate mutated state")
	}
}

func TestParamsValidate(t *testing.T) {
	for _, bad := range []Params{{Alpha: 0, RMax: 0.1}, {Alpha: 1, RMax: 0.1}, {Alpha: 0.2, RMax: 0}} {
		if bad.Validate() == nil {
			t.Fatalf("accepted bad params %+v", bad)
		}
	}
	if (Params{Alpha: 0.15, RMax: 1e-5}).Validate() != nil {
		t.Fatal("rejected good params")
	}
	// The retired over-relaxed push: rejected by name.
	if err := (Params{Alpha: 0.15, RMax: 1e-5, Accel: true}).Validate(); err == nil || !strings.Contains(err.Error(), "Accel") {
		t.Fatalf("Accel: true gave %v, want an error naming Accel", err)
	}
}

func TestSmallerRMaxTightens(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randGraph(rng, 40, 200)
	pi := exactPPR(g, 0, 0.15, graph.Forward)
	var prevErr = math.Inf(1)
	for _, rmax := range []float64{1e-2, 1e-3, 1e-4, 1e-5} {
		e := mustPPR(NewEngine(g, Params{Alpha: 0.15, RMax: rmax}))
		st := NewState(0, graph.Forward)
		e.Push(st)
		var errSum float64
		for u := int32(0); u < 40; u++ {
			errSum += math.Abs(st.P[u] - pi[u])
		}
		if errSum > prevErr*1.5+1e-12 {
			t.Fatalf("rmax %g error %g worse than previous %g", rmax, errSum, prevErr)
		}
		// Tight theoretical bound: Σ_u |p−π| ≤ Σ_v |r(v)| because each
		// π_v sums to 1 over targets.
		if bound := st.ResidueL1(); errSum > bound+1e-9 {
			t.Fatalf("rmax %g: L1 error %g exceeds residue mass %g", rmax, errSum, bound)
		}
		prevErr = errSum
	}
}
