package ppr

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"

	"github.com/tree-svd/treesvd/internal/graph"
)

// gobState is the wire form of a PPR state. Keys are written in ascending
// order, so equal states encode to equal bytes. Neither the dirty-residue
// list nor the membership and estimate sets are persisted: on decode every
// residue node is marked dirty so the first Push after a load re-validates
// the threshold everywhere — conservative and always sound — and
// RestoreSubset rebuilds both sets as it range-checks the keys (so a
// corrupt key never sizes their allocation).
type gobState struct {
	Source int32
	Dir    uint8
	PKeys  []int32
	PVals  []float64
	RKeys  []int32
	RVals  []float64
	TKeys  []int32
}

// GobEncode implements gob.GobEncoder: the non-zero estimates and residues
// in ascending key order, whatever order the table holds them in.
func (st *State) GobEncode() ([]byte, error) {
	keys := make([]int32, 0, st.tab.n)
	st.Each(func(u int32, _, _ float64) { keys = append(keys, u) })
	slices.Sort(keys)
	wire := gobState{Source: st.Source, Dir: uint8(st.Dir)}
	for _, k := range keys {
		x := st.tab.vals[st.tab.find(k)]
		if x.p != 0 {
			wire.PKeys, wire.PVals = append(wire.PKeys, k), append(wire.PVals, x.p)
		}
		if x.r != 0 {
			wire.RKeys, wire.RVals = append(wire.RKeys, k), append(wire.RVals, x.r)
		}
	}
	wire.TKeys = slices.Clone(st.Touched)
	slices.Sort(wire.TKeys)
	wire.TKeys = slices.Compact(wire.TKeys)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// unionLen is |a ∪ b| for ascending a and b — what an encoder writes. For
// other input it is only a presizing estimate; inserts still grow the
// table as needed.
func unionLen(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			i, j = i+1, j+1
		}
		n++
	}
	return n + len(a) - i + len(b) - j
}

// decodeVector stores one estimate or residue vector from its wire form in
// t, accepting only the canonical form the engine maintains — a key is
// present iff its value is non-zero, once, and finite — which is what
// makes an unset membership bit prove p_s(u) == 0 ∧ r_s(u) == 0 after a
// load. A negative key is refused before it reaches the table, whose free
// slots hold -1.
func decodeVector(t *table, name string, keys []int32, vals []float64, field func(*entry) *float64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("ppr: gob state has %d/%d %s keys/values", len(keys), len(vals), name)
	}
	repeats := 0
	for i, k := range keys {
		v := vals[i]
		if k < 0 {
			return fmt.Errorf("ppr: gob state has negative %s key %d", name, k)
		}
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ppr: gob state stores non-canonical %s value %g at key %d", name, v, k)
		}
		j, ok := t.slot(k)
		if !ok {
			j = t.insert(k, j)
		}
		if f := field(&t.vals[j]); *f != 0 {
			repeats++
		} else {
			*f = v
		}
	}
	if repeats > 0 {
		return fmt.Errorf("ppr: gob state repeats %d of its %d %s keys", repeats, len(keys), name)
	}
	return nil
}

// GobDecode implements gob.GobDecoder. The decoded state has no membership
// set yet: hand it to RestoreSubset before a Subset repairs it.
func (st *State) GobDecode(data []byte) error {
	var wire gobState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return err
	}
	t := newTable(unionLen(wire.PKeys, wire.RKeys))
	if err := decodeVector(&t, "estimate", wire.PKeys, wire.PVals, func(x *entry) *float64 { return &x.p }); err != nil {
		return err
	}
	if err := decodeVector(&t, "residue", wire.RKeys, wire.RVals, func(x *entry) *float64 { return &x.r }); err != nil {
		return err
	}
	*st = State{Source: wire.Source, Dir: graph.Direction(wire.Dir), tab: t,
		Touched: wire.TKeys, dirtyR: wire.RKeys}
	return nil
}
