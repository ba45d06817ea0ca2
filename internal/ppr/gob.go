package ppr

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/tree-svd/treesvd/internal/graph"
)

// gobState is the wire form of a PPR state. The dirty-residue set is not
// persisted: on decode every residue node is marked dirty so the first
// Push after a load re-validates the threshold everywhere — conservative
// and always sound.
type gobState struct {
	Source int32
	Dir    uint8
	PKeys  []int32
	PVals  []float64
	RKeys  []int32
	RVals  []float64
	TKeys  []int32
}

// GobEncode implements gob.GobEncoder.
func (st *State) GobEncode() ([]byte, error) {
	wire := gobState{Source: st.Source, Dir: uint8(st.Dir)}
	for k, v := range st.P {
		wire.PKeys = append(wire.PKeys, k)
		wire.PVals = append(wire.PVals, v)
	}
	for k, v := range st.R {
		wire.RKeys = append(wire.RKeys, k)
		wire.RVals = append(wire.RVals, v)
	}
	for k := range st.Touched {
		wire.TKeys = append(wire.TKeys, k)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (st *State) GobDecode(data []byte) error {
	var wire gobState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return err
	}
	if len(wire.PKeys) != len(wire.PVals) || len(wire.RKeys) != len(wire.RVals) {
		return fmt.Errorf("ppr: gob state has %d/%d estimate and %d/%d residue keys/values",
			len(wire.PKeys), len(wire.PVals), len(wire.RKeys), len(wire.RVals))
	}
	st.Source = wire.Source
	st.Dir = graph.Direction(wire.Dir)
	st.P = make(map[int32]float64, len(wire.PKeys))
	for i, k := range wire.PKeys {
		st.P[k] = wire.PVals[i]
	}
	st.R = make(map[int32]float64, len(wire.RKeys))
	st.dirtyR = make(map[int32]struct{}, len(wire.RKeys))
	for i, k := range wire.RKeys {
		st.R[k] = wire.RVals[i]
		st.dirtyR[k] = struct{}{}
	}
	st.Touched = make(map[int32]struct{}, len(wire.TKeys))
	for _, k := range wire.TKeys {
		st.Touched[k] = struct{}{}
	}
	return nil
}
