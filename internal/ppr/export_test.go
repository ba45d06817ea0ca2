package ppr

import (
	"bytes"
	"encoding/gob"

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

// NonCanonicalWires returns the encoded wire form of every state
// TestStateGobDecodeRejectsNonCanonical feeds the decoder.
func NonCanonicalWires() [][]byte {
	var out [][]byte
	for _, tc := range nonCanonical {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tc.wire); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}
