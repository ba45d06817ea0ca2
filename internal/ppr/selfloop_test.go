package ppr

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
)

// TestSelfLoopSinkTransitionNoOp is the ISSUE 3 regression for the
// self-loop corruption bug: under the engine's dangling-node convention a
// sink already behaves as if it had a self-loop, so making that loop
// explicit (or removing an explicit last-edge self-loop) leaves the
// effective traversal matrix unchanged and the exact Algorithm 2
// correction is a no-op. The a ≠ b sink-transition formulas used to run
// here instead, deflating p(a) by a factor α on insert (and inflating it
// by 1/α on delete) while manufacturing artificial residue.
func TestSelfLoopSinkTransitionNoOp(t *testing.T) {
	g := graph.New(3)
	g.InsertEdge(0, 1)
	g.InsertEdge(0, 2)
	// Node 1 is dangling; PPR from 0 parks (1−α)/2 of its mass there.
	eng, err := NewEngine(g, Params{Alpha: 0.2, RMax: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(0, graph.Forward)
	eng.Push(st)
	p0, r0 := content(st)
	if p0[1] < 0.1 {
		t.Fatalf("setup: expected estimate mass at dangling node 1, got %g", p0[1])
	}

	// Dangling → explicit self-loop: must not move any estimate or residue.
	ev := graph.Event{U: 1, V: 1, Type: graph.Insert}
	if !g.Apply(ev) {
		t.Fatal("setup: self-loop insert rejected")
	}
	eng.AdjustEvent(st, ev)
	p, r := content(st)
	for u, v := range p0 {
		if p[u] != v {
			t.Errorf("insert(1,1): p(%d) changed %g -> %g; self-loop on a sink must be a no-op", u, v, p[u])
		}
	}
	for u, v := range r0 {
		if r[u] != v {
			t.Errorf("insert(1,1): r(%d) changed %g -> %g", u, v, r[u])
		}
	}
	if len(p) != len(p0) || len(r) != len(r0) {
		t.Errorf("insert(1,1): support changed: |P| %d -> %d, |R| %d -> %d", len(p0), len(p), len(r0), len(r))
	}

	// Explicit self-loop → dangling: the inverse transition, also a no-op.
	ev = graph.Event{U: 1, V: 1, Type: graph.Delete}
	if !g.Apply(ev) {
		t.Fatal("setup: self-loop delete rejected")
	}
	eng.AdjustEvent(st, ev)
	p, r = content(st)
	for u, v := range p0 {
		if p[u] != v {
			t.Errorf("delete(1,1): p(%d) changed %g -> %g", u, v, p[u])
		}
	}
	for u, v := range r0 {
		if r[u] != v {
			t.Errorf("delete(1,1): r(%d) changed %g -> %g", u, v, r[u])
		}
	}
}

// TestSelfLoopGeneralCorrection checks the derived a == b correction on a
// node that keeps other out-edges: insert then delete of a self-loop must
// keep the estimates consistent with a from-scratch push within the
// pointwise residue bound.
func TestSelfLoopGeneralCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randGraph(rng, 20, 60)
	params := Params{Alpha: 0.15, RMax: 1e-6}
	inc, err := NewSubset(g, []int32{0, 1, 2}, params)
	if err != nil {
		t.Fatal(err)
	}
	var events []graph.Event
	for u := int32(0); u < 20; u++ {
		events = append(events, graph.Event{U: u, V: u, Type: graph.Insert})
	}
	for u := int32(0); u < 20; u += 2 {
		events = append(events, graph.Event{U: u, V: u, Type: graph.Delete})
	}
	if err := inc.ApplyEvents(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSubset(g.Clone(), []int32{0, 1, 2}, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inc.S {
		for _, pair := range [][2]*State{{inc.Fwd[i], fresh.Fwd[i]}, {inc.Rev[i], fresh.Rev[i]}} {
			bound := pair[0].ResidueL1() + pair[1].ResidueL1()
			p0, _ := content(pair[0])
			p1, _ := content(pair[1])
			seen := make(map[int32]struct{})
			for u := range p0 {
				seen[u] = struct{}{}
			}
			for u := range p1 {
				seen[u] = struct{}{}
			}
			for u := range seen {
				if d := math.Abs(p0[u] - p1[u]); d > bound {
					t.Errorf("source %d dir %v: |Δp(%d)| = %g exceeds residue bound %g",
						inc.S[i], pair[0].Dir, u, d, bound)
				}
			}
		}
	}
}

// TestSelfLoopEstimateAccuracy drives a self-loop-heavy event stream
// incrementally and checks the final estimates against exact PPR (power
// iteration) within the Σ|r| pointwise guarantee.
func TestSelfLoopEstimateAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.New(15)
	for v := int32(0); v < 15; v++ {
		g.InsertEdge(v, (v+1)%15)
	}
	params := Params{Alpha: 0.2, RMax: 1e-6}
	sub, err := NewSubset(g, []int32{0}, params)
	if err != nil {
		t.Fatal(err)
	}
	var events []graph.Event
	for k := 0; k < 120; k++ {
		u := int32(rng.Intn(15))
		switch rng.Intn(4) {
		case 0:
			events = append(events, graph.Event{U: u, V: u, Type: graph.Insert})
		case 1:
			events = append(events, graph.Event{U: u, V: u, Type: graph.Delete})
		case 2:
			events = append(events, graph.Event{U: u, V: int32(rng.Intn(15)), Type: graph.Delete})
		default:
			events = append(events, graph.Event{U: u, V: int32(rng.Intn(15)), Type: graph.Insert})
		}
	}
	for i := 0; i < len(events); i += 9 {
		end := min(i+9, len(events))
		if err := sub.ApplyEvents(context.Background(), events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []graph.Direction{graph.Forward, graph.Reverse} {
		st := sub.Fwd[0]
		if dir == graph.Reverse {
			st = sub.Rev[0]
		}
		exact := exactPPR(g, 0, params.Alpha, dir)
		bound := st.ResidueL1() + 1e-9
		p, _ := content(st)
		for u, pi := range exact {
			if d := math.Abs(p[int32(u)] - pi); d > bound {
				t.Errorf("dir %v: |p(%d) − π(%d)| = %g exceeds Σ|r| = %g", dir, u, u, d, bound)
			}
		}
	}
}
