package check

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/column"
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

// wireState mirrors ppr.State's saved layout, so a test can edit a state
// the way a damaged file would without a setter.
type wireState struct {
	Source              int32
	Dir                 uint8
	PKeys, RKeys, TKeys []int32
	PVals, RVals        []float64
}

// readWireState reads a saved state's columns.
func readWireState(b []byte) (wireState, error) {
	r := column.NewReader(b)
	w := wireState{Source: r.Int32(), Dir: r.Byte()}
	w.PKeys, w.PVals, w.RKeys, w.RVals, w.TKeys = r.Int32s(), r.Float64s(), r.Int32s(), r.Float64s(), r.Int32s()
	return w, r.Done()
}

// encode lays w out as ppr.State.AppendEncoded does.
func (w wireState) encode() []byte {
	b := append(column.AppendUint32(nil, uint32(w.Source)), w.Dir)
	b = column.AppendInt32s(b, w.PKeys)
	b = column.AppendFloat64s(b, w.PVals)
	b = column.AppendInt32s(b, w.RKeys)
	b = column.AppendFloat64s(b, w.RVals)
	return column.AppendInt32s(b, w.TKeys)
}

// addAt adds delta to the value stored under key k, appending k if absent.
func addAt(keys *[]int32, vals *[]float64, k int32, delta float64) {
	for i, key := range *keys {
		if key == k {
			(*vals)[i] += delta
			return
		}
	}
	*keys, *vals = append(*keys, k), append(*vals, delta)
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
	w, err := readWireState(st.AppendEncoded(nil))
	if err != nil {
		t.Fatal(err)
	}
	addAt(&w.PKeys, &w.PVals, st.Source, -5e-3)
	addAt(&w.PKeys, &w.PVals, (st.Source+1)%20, 5e-3)
	drifted, err := ppr.DecodeState(w.encode())
	if err != nil {
		t.Fatal(err)
	}
	sub.Fwd[0] = drifted
	sub, err = ppr.RestoreSubset(sub.Engine.G, sub.S, sub.Engine.Params, sub.Fwd, sub.Rev)
	if err != nil {
		t.Fatal(err)
	}
	if err := PPRState(sub.Engine.G, sub.Engine.Params, drifted); err != nil {
		t.Fatalf("mass-neutral drift tripped the cheap auditor: %v", err)
	}
	err = PPRSubsetExact(sub)
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
