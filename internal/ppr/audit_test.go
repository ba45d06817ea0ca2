package ppr_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/check"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/ppr"
)

// checkedSubset builds a random graph and a maintained PPR subset the
// auditors should accept as healthy.
func checkedSubset(t testing.TB) *ppr.Subset {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g := graph.New(20)
	for g.NumEdges() < 60 {
		u, v := int32(rng.Intn(20)), int32(rng.Intn(20))
		if u != v {
			g.InsertEdge(u, v)
		}
	}
	sub, err := ppr.NewSubset(g, []int32{0, 3, 9}, ppr.Params{Alpha: 0.2, RMax: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestPPRStateDetectsCorruption plants the corruption classes
// check.PPRState is specified to catch: broken mass accounting,
// push-threshold violations, out-of-range keys, and non-finite values.
func TestPPRStateDetectsCorruption(t *testing.T) {
	cases := map[string]struct {
		mutate func(*ppr.State)
		want   string
	}{
		"estimate mass leak": {
			func(st *ppr.State) { ppr.Poke(st, st.Source, st.Est(st.Source)+1e-3, st.Res(st.Source)) },
			"mass accounting",
		},
		"residue above push threshold": {
			func(st *ppr.State) { ppr.Poke(st, st.Source, st.Est(st.Source)-0.5, st.Res(st.Source)+0.5) },
			"push invariant",
		},
		"estimate key out of range": {
			func(st *ppr.State) {
				ppr.Poke(st, 500, st.Est(st.Source), 0)
				ppr.Poke(st, st.Source, 0, st.Res(st.Source))
			},
			"outside graph",
		},
		"residue key negative": {
			func(st *ppr.State) { ppr.Poke(st, -2, 0, 0) },
			"outside graph",
		},
		"non-finite estimate": {
			func(st *ppr.State) { ppr.Poke(st, st.Source, math.NaN(), st.Res(st.Source)) },
			"non-finite",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			sub := checkedSubset(t)
			tc.mutate(sub.Fwd[0])
			err := check.PPRSubset(sub)
			if err == nil {
				t.Fatal("corruption went undetected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPPRStateDetectsUnmarkedKey: an estimate written behind the engine's
// back, at a live node the state never reached, keeps every other invariant
// (ids, finiteness, threshold, mass) and must still fail — Subset.Repair
// would skip the corrections that node is owed.
func TestPPRStateDetectsUnmarkedKey(t *testing.T) {
	sub := checkedSubset(t)
	sub.Engine.G.EnsureNode(20) // isolated, so outside every membership set
	st := sub.Fwd[0]
	ppr.Poke(st, 20, st.Est(st.Source), 0)
	ppr.Poke(st, st.Source, 0, st.Res(st.Source))
	if err := check.PPRSubset(sub); err == nil || !strings.Contains(err.Error(), "membership set") {
		t.Fatalf("PPRSubset = %v, want a membership-set violation", err)
	}
}

// TestPPRStateDetectsUnmarkedEstimate: estimate mass moved onto a member
// that holds only residue, outside the estimate set, keeps the other
// invariants and must still fail — Subset.Repair would skip the insert
// corrections that node is owed.
func TestPPRStateDetectsUnmarkedEstimate(t *testing.T) {
	// A coarse r_max leaves nodes that hold residue and were never pushed.
	sub, err := ppr.NewSubset(checkedSubset(t).Engine.G, []int32{0}, ppr.Params{Alpha: 0.2, RMax: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st := sub.Fwd[0]
	u := int32(-1)
	st.Each(func(v int32, p, _ float64) {
		if u < 0 && p == 0 && !st.Estimated(v) {
			u = v
		}
	})
	if u < 0 {
		t.Fatal("setup: every stored node of the state holds an estimate")
	}
	ppr.Poke(st, u, 1e-3, st.Res(u))
	ppr.Poke(st, st.Source, st.Est(st.Source)-1e-3, st.Res(st.Source))
	if err := check.PPRSubset(sub); err == nil || !strings.Contains(err.Error(), "estimate set") {
		t.Fatalf("PPRSubset = %v, want an estimate-set violation", err)
	}
}

// FuzzStateGobDecode is the PPR-state decoder's property: any bytes decode
// to an error, or to a state that RestoreSubset refuses, or to one whose
// every key is a node of the graph inside its membership set with finite
// values and every estimate inside its estimate set, that encodes to the
// same bytes twice and again after a round trip, and that takes one Repair
// without a panic. Only a state that also passes the full audit is
// repaired, as Load audits before any batch. The seeds are the wire forms
// the decoder must refuse and two states saved mid-stream.
func FuzzStateGobDecode(f *testing.F) {
	for _, raw := range ppr.NonCanonicalWires() {
		f.Add(raw)
	}
	live := checkedSubset(f)
	ctx := context.Background()
	if err := live.ApplyEvents(ctx, []graph.Event{{U: 0, V: 9, Type: graph.Insert}, {U: 3, V: 0, Type: graph.Delete}}); err != nil {
		f.Fatal(err)
	}
	for _, st := range []*ppr.State{live.Fwd[1], live.Rev[2]} {
		raw, err := st.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	params := live.Engine.Params
	// At this r_max no residue can break the push invariant, so the audit
	// refuses only broken mass accounting besides what the property bans.
	loose := ppr.Params{Alpha: params.Alpha, RMax: math.MaxFloat64}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := new(ppr.State)
		if st.GobDecode(data) != nil {
			return
		}
		g := live.Engine.G.Clone()
		var fwd, rev []*ppr.State
		if st.Dir == graph.Forward {
			fwd = []*ppr.State{st}
		} else {
			rev = []*ppr.State{st}
		}
		sub, err := ppr.RestoreSubset(g, []int32{st.Source}, params, fwd, rev)
		if err != nil {
			return
		}
		if err := check.PPRState(g, loose, st); err != nil && !strings.Contains(err.Error(), "mass accounting") {
			t.Fatalf("restored state fails its audit: %v", err)
		}
		once, err := st.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		twice, err := st.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		again := new(ppr.State)
		if err := again.GobDecode(once); err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		thrice, err := again.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) || !bytes.Equal(once, thrice) {
			t.Fatal("encoding is not a function of the state")
		}
		if check.PPRState(g, params, st) != nil {
			return
		}
		// An edge toggled each way at the source reaches the state in either
		// direction.
		w := (st.Source + 1) % int32(g.NumNodes())
		var events []graph.Event
		for _, e := range [][2]int32{{st.Source, w}, {w, st.Source}} {
			typ := graph.Insert
			if g.HasEdge(e[0], e[1]) {
				typ = graph.Delete
			}
			events = append(events, graph.Event{U: e[0], V: e[1], Type: typ})
		}
		if err := sub.ApplyEvents(ctx, events); err != nil {
			t.Fatal(err)
		}
	})
}
