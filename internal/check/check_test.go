package check

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/ppr"
)

// checkedSubset builds a random graph and a maintained PPR subset the
// auditors should accept as healthy.
func checkedSubset(t *testing.T) *ppr.Subset {
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

func TestPPRAuditorsAcceptHealthyState(t *testing.T) {
	sub := checkedSubset(t)
	if err := PPRSubset(sub); err != nil {
		t.Fatalf("healthy subset failed PPRSubset: %v", err)
	}
	if err := PPRSubsetExact(sub); err != nil {
		t.Fatalf("healthy subset failed PPRSubsetExact: %v", err)
	}
}

// TestPPRStateDetectsCorruption plants the corruption classes PPRState is
// specified to catch: broken mass accounting, push-threshold violations,
// out-of-range keys, and non-finite values.
func TestPPRStateDetectsCorruption(t *testing.T) {
	cases := map[string]struct {
		mutate func(*ppr.State)
		want   string
	}{
		"estimate mass leak": {
			func(st *ppr.State) { st.P[st.Source] += 1e-3 },
			"mass accounting",
		},
		"residue above push threshold": {
			func(st *ppr.State) { st.R[st.Source] += 0.5; st.P[st.Source] -= 0.5 },
			"push invariant",
		},
		"estimate key out of range": {
			func(st *ppr.State) { v := st.P[st.Source]; st.P[500] = v; st.P[st.Source] = 0 },
			"outside graph",
		},
		"residue key negative": {
			func(st *ppr.State) { st.R[-2] = 0 },
			"outside graph",
		},
		"non-finite estimate": {
			func(st *ppr.State) { st.P[st.Source] = math.NaN() },
			"non-finite",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			sub := checkedSubset(t)
			tc.mutate(sub.Fwd[0])
			err := PPRSubset(sub)
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
	st.P[20] = st.P[st.Source]
	delete(st.P, st.Source)
	if err := PPRSubset(sub); err == nil || !strings.Contains(err.Error(), "membership set") {
		t.Fatalf("PPRSubset = %v, want a membership-set violation", err)
	}
}

// TestPPRExactDetectsEstimateDrift: an estimate moved away from ground
// truth with mass accounting kept internally consistent slips past
// PPRState (the bug class the ground-truth auditor exists for) but must
// fail PPRExact.
func TestPPRExactDetectsEstimateDrift(t *testing.T) {
	sub := checkedSubset(t)
	st := sub.Fwd[0]
	// Move estimate mass between two nodes: Σp unchanged, residues
	// untouched — PPRState accepts, the exact audit must not.
	st.P[st.Source] -= 5e-3
	st.P[(st.Source+1)%20] += 5e-3
	if err := PPRState(sub.Engine.G, sub.Engine.Params, st); err != nil {
		t.Fatalf("mass-neutral drift tripped the cheap auditor: %v", err)
	}
	err := PPRSubsetExact(sub)
	if err == nil {
		t.Fatal("estimate drift went undetected by exact audit")
	}
	if !strings.Contains(err.Error(), "residue bound") {
		t.Fatalf("error %q does not mention the residue bound", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := FingerprintVec([]float64{1, 2, 3})
	if FingerprintVec([]float64{1, 2, 3}) != base {
		t.Fatal("fingerprint not deterministic")
	}
	for name, v := range map[string][]float64{
		"value change": {1, 2, 3.0000000001},
		"order swap":   {2, 1, 3},
		"truncation":   {1, 2},
		"zero padding": {1, 2, 3, 0},
	} {
		if FingerprintVec(v) == base {
			t.Errorf("%s not detected", name)
		}
	}

	rows := FingerprintRows([][]float64{{1, 2}, {3}})
	if FingerprintRows([][]float64{{1}, {2, 3}}) == rows {
		t.Error("row-structure change not detected")
	}

	snap := Snapshot([][]float64{{1}}, [][]float64{{2}}, []float64{3})
	for name, other := range map[string]uint64{
		"x change": Snapshot([][]float64{{1.5}}, [][]float64{{2}}, []float64{3}),
		"y change": Snapshot([][]float64{{1}}, [][]float64{{2.5}}, []float64{3}),
		"s change": Snapshot([][]float64{{1}}, [][]float64{{2}}, []float64{3.5}),
		"x/y swap": Snapshot([][]float64{{2}}, [][]float64{{1}}, []float64{3}),
	} {
		if other == snap {
			t.Errorf("snapshot fingerprint misses %s", name)
		}
	}
}
