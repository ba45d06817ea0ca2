package ppr

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/tree-svd/treesvd/internal/column"
	"github.com/tree-svd/treesvd/internal/graph"
)

// A state's saved form, in column's little-endian layout:
//
//	int32 Source | byte Dir | PKeys | PVals | RKeys | RVals | TKeys
//
// the non-zero estimates and residues as key and value columns, keys
// ascending, so equal states encode to equal bytes, and the touched list
// sorted without repeats. Neither the dirty-residue list nor the
// membership and estimate sets are persisted: on decode every residue node
// is marked dirty so the first Push after a load re-validates the
// threshold everywhere — conservative and always sound — and
// RestoreSubset rebuilds both sets as it range-checks the keys (so a
// corrupt key never sizes their allocation).

// counts returns how many of the state's keys hold a non-zero estimate
// and a non-zero residue.
func (st *State) counts() (np, nr int) {
	for i, k := range st.tab.keys {
		if k != emptyKey {
			x := st.tab.vals[i]
			np += b2i(x.p != 0)
			nr += b2i(x.r != 0)
		}
	}
	return np, nr
}

// b2i is 1 for true; the compiler emits it without a branch, which the
// random pattern of zero estimates and residues would mispredict.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// touchedSet is the touched list sorted, without repeats.
func (st *State) touchedSet() []int32 {
	t := slices.Clone(st.Touched)
	slices.Sort(t)
	return slices.Compact(t)
}

// EncodedLen is the size of the state's saved form.
func (st *State) EncodedLen() int {
	np, nr := st.counts()
	return encodedLen(np, nr, len(st.touchedSet()))
}

// encodedLen is the size of a saved state with np estimates, nr residues
// and nt touched nodes.
func encodedLen(np, nr, nt int) int {
	return 5 + column.Int32sLen(np) + column.Float64sLen(np) + column.Int32sLen(nr) + column.Float64sLen(nr) +
		column.Int32sLen(nt)
}

// AppendEncoded appends the state's saved form to b. The keys come out
// ascending without a comparison sort: each live key sets its bit in a
// set over [0, largest key], and one scan of the set's words visits them
// in order, O(keys + largest key/64).
func (st *State) AppendEncoded(b []byte) []byte {
	live := make(bitset, len(st.member)) // member covers every key once restored
	np, nr := 0, 0
	for i, k := range st.tab.keys {
		if k == emptyKey {
			continue
		}
		x := st.tab.vals[i]
		np += b2i(x.p != 0)
		nr += b2i(x.r != 0)
		if x != (entry{}) {
			live.add(k)
		}
	}
	touched := st.touchedSet()
	// One growth up front: the four columns are filled after all are
	// reserved, so none may move the buffer.
	b = slices.Grow(b, encodedLen(np, nr, len(touched)))
	b = column.AppendUint32(b, uint32(st.Source))
	b = append(b, byte(st.Dir))
	b, pk := column.Reserve(b, np, 4)
	b, pv := column.Reserve(b, np, 8)
	b, rk := column.Reserve(b, nr, 4)
	b, rv := column.Reserve(b, nr, 8)
	ip, ir := 0, 0
	for w, word := range live {
		for ; word != 0; word &= word - 1 {
			k := int32(w<<6 | bits.TrailingZeros64(word))
			x := st.tab.vals[st.tab.find(k)]
			if x.p != 0 {
				column.PutInt32(pk, ip, k)
				column.PutFloat64(pv, ip, x.p)
				ip++
			}
			if x.r != 0 {
				column.PutInt32(rk, ir, k)
				column.PutFloat64(rv, ir, x.r)
				ir++
			}
		}
	}
	return column.AppendInt32s(b, touched)
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

// decodeVector stores one estimate or residue vector from its saved columns in
// t, accepting only the canonical form the engine maintains — a key is
// present iff its value is non-zero, once, and finite — which is what
// makes an unset membership bit prove p_s(u) == 0 ∧ r_s(u) == 0 after a
// load. A negative key is refused before it reaches the table, whose free
// slots hold -1.
func decodeVector(t *table, name string, keys []int32, vals []float64, field func(*entry) *float64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("ppr: state has %d/%d %s keys/values", len(keys), len(vals), name)
	}
	repeats := 0
	for i, k := range keys {
		v := vals[i]
		if k < 0 {
			return fmt.Errorf("ppr: state has negative %s key %d", name, k)
		}
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ppr: state stores non-canonical %s value %g at key %d", name, v, k)
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
		return fmt.Errorf("ppr: state repeats %d of its %d %s keys", repeats, len(keys), name)
	}
	return nil
}

// DecodeState restores a state from its saved form, accepting only the
// canonical form (decodeVector). The decoded state has no membership set
// yet: hand it to RestoreSubset before a Subset repairs it.
func DecodeState(data []byte) (*State, error) {
	r := column.NewReader(data)
	source, dir := r.Int32(), r.Byte()
	pKeys, pVals, rKeys, rVals, tKeys := r.Int32s(), r.Float64s(), r.Int32s(), r.Float64s(), r.Int32s()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("ppr: decode state: %w", err)
	}
	t := newTable(unionLen(pKeys, rKeys))
	if err := decodeVector(&t, "estimate", pKeys, pVals, func(x *entry) *float64 { return &x.p }); err != nil {
		return nil, err
	}
	if err := decodeVector(&t, "residue", rKeys, rVals, func(x *entry) *float64 { return &x.r }); err != nil {
		return nil, err
	}
	return &State{Source: source, Dir: graph.Direction(dir), tab: t, Touched: tKeys, dirtyR: rKeys}, nil
}
