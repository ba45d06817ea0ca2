package ppr

import (
	"bytes"
	"encoding/gob"
)

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
