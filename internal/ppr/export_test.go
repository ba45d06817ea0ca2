package ppr

import (
	"github.com/tree-svd/treesvd/internal/column"
	"github.com/tree-svd/treesvd/internal/graph"
)

// AdjustEvent applies adjustWithDeg's corrections for one edge event,
// reading the tail's degree from the graph, which must already reflect
// the event: the one-event form the repair tests drive by hand.
func (e *Engine) AdjustEvent(st *State, ev graph.Event) {
	a, b := ev.U, ev.V
	if st.Dir == graph.Reverse {
		a, b = b, a
	}
	if int(a) >= e.G.NumNodes() || int(b) >= e.G.NumNodes() {
		return
	}
	e.adjustWithDeg(st, a, b, ev.Type, float64(e.G.Degree(a, st.Dir)))
}

// Poke overwrites u's estimate and residue, giving u a slot if it has none,
// and leaves the membership and estimate sets alone: the write a forgotten
// mark would make, for tests that plant what the auditors must catch. u
// must not be -1, the free-slot marker.
func Poke(st *State, u int32, p, r float64) {
	i, ok := st.tab.slot(u)
	if !ok {
		i = st.tab.insert(u, i)
	}
	st.tab.vals[i] = entry{p, r}
}

// stateCols is a state's saved layout as plain columns, so a test can
// write forms no encoder emits.
type stateCols struct {
	Source int32
	Dir    uint8
	PKeys  []int32
	PVals  []float64
	RKeys  []int32
	RVals  []float64
	TKeys  []int32
}

// encode lays w out as AppendEncoded does.
func (w stateCols) encode() []byte {
	b := append(column.AppendUint32(nil, uint32(w.Source)), w.Dir)
	b = column.AppendInt32s(b, w.PKeys)
	b = column.AppendFloat64s(b, w.PVals)
	b = column.AppendInt32s(b, w.RKeys)
	b = column.AppendFloat64s(b, w.RVals)
	return column.AppendInt32s(b, w.TKeys)
}

// NonCanonicalWires returns the encoded form of every state
// TestStateGobDecodeRejectsNonCanonical feeds the decoder.
func NonCanonicalWires() [][]byte {
	var out [][]byte
	for _, tc := range nonCanonical {
		out = append(out, tc.wire.encode())
	}
	return out
}
