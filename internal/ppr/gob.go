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
// list nor the membership set is persisted: on decode every residue node
// is marked dirty so the first Push after a load re-validates the
// threshold everywhere — conservative and always sound — and
// RestoreSubset rebuilds the membership set as it range-checks the keys
// (so a corrupt key never sizes the allocation).
type gobState struct {
	Source int32
	Dir    uint8
	PKeys  []int32
	PVals  []float64
	RKeys  []int32
	RVals  []float64
	TKeys  []int32
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[int32]float64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// GobEncode implements gob.GobEncoder.
func (st *State) GobEncode() ([]byte, error) {
	wire := gobState{Source: st.Source, Dir: uint8(st.Dir), PKeys: sortedKeys(st.P), RKeys: sortedKeys(st.R)}
	for _, k := range wire.PKeys {
		wire.PVals = append(wire.PVals, st.P[k])
	}
	for _, k := range wire.RKeys {
		wire.RVals = append(wire.RVals, st.R[k])
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

// decodeVector builds one estimate or residue map from its wire form,
// accepting only the canonical form the engine maintains — a key is
// present iff its value is non-zero, once, and finite — which is what
// makes an unset membership bit prove P[u] == 0 ∧ R[u] == 0 after a load.
func decodeVector(name string, keys []int32, vals []float64) (map[int32]float64, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("ppr: gob state has %d/%d %s keys/values", len(keys), len(vals), name)
	}
	m := make(map[int32]float64, len(keys))
	for i, k := range keys {
		v := vals[i]
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ppr: gob state stores non-canonical %s value %g at key %d", name, v, k)
		}
		m[k] = v
	}
	if len(m) != len(keys) {
		return nil, fmt.Errorf("ppr: gob state repeats %d of its %d %s keys", len(keys)-len(m), len(keys), name)
	}
	return m, nil
}

// GobDecode implements gob.GobDecoder. The decoded state has no membership
// set yet: hand it to RestoreSubset before a Subset repairs it.
func (st *State) GobDecode(data []byte) error {
	var wire gobState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return err
	}
	p, err := decodeVector("estimate", wire.PKeys, wire.PVals)
	if err != nil {
		return err
	}
	r, err := decodeVector("residue", wire.RKeys, wire.RVals)
	if err != nil {
		return err
	}
	*st = State{Source: wire.Source, Dir: graph.Direction(wire.Dir), P: p, R: r,
		Touched: wire.TKeys, dirtyR: wire.RKeys}
	return nil
}
