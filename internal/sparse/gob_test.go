package sparse

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func TestDynRowGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewDynRow(8, 40, 5)
	for i := 0; i < 200; i++ {
		m.Set(rng.Intn(8), rng.Intn(40), rng.NormFloat64())
	}
	// Rebuild some blocks, then churn more so baselines are non-trivial.
	m.MarkRebuilt(1)
	m.MarkRebuilt(3)
	for i := 0; i < 100; i++ {
		m.Set(rng.Intn(8), rng.Intn(40), rng.NormFloat64())
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	m2 := &DynRow{}
	if err := gob.NewDecoder(&buf).Decode(m2); err != nil {
		t.Fatal(err)
	}
	if m2.Rows() != m.Rows() || m2.Cols() != m.Cols() || m2.NumBlocks() != m.NumBlocks() || m2.NNZ() != m.NNZ() {
		t.Fatal("shape/nnz mismatch after decode")
	}
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			if m.Get(r, c) != m2.Get(r, c) {
				t.Fatalf("entry (%d,%d) differs", r, c)
			}
		}
	}
	for j := 0; j < m.NumBlocks(); j++ {
		if m.BlockFrobNorm(j) != m2.BlockFrobNorm(j) {
			t.Fatalf("block %d frob differs", j)
		}
		if m.DeltaFrobNorm(j) != m2.DeltaFrobNorm(j) {
			t.Fatalf("block %d delta differs", j)
		}
		if m.BlockNNZ(j) != m2.BlockNNZ(j) {
			t.Fatalf("block %d nnz differs", j)
		}
	}
	// Future mutations track identically (baselines restored).
	m.Set(0, 0, 3.5)
	m2.Set(0, 0, 3.5)
	if m.DeltaFrobNorm(0) != m2.DeltaFrobNorm(0) {
		t.Fatal("delta tracking diverges after decode")
	}
}

// churnedForGob is a matrix with live entries, rebuilt blocks and
// non-trivial baselines, built by replaying one fixed Set sequence.
func churnedForGob() *DynRow {
	rng := rand.New(rand.NewSource(11))
	m := NewDynRow(8, 40, 5)
	for i := 0; i < 300; i++ {
		v := rng.NormFloat64()
		if i%5 == 0 {
			v = 0
		}
		m.Set(rng.Intn(8), rng.Intn(40), v)
		if i == 150 {
			m.MarkRebuilt(1)
			m.MarkRebuilt(3)
		}
	}
	return m
}

func mustEncode(t testing.TB, m *DynRow) []byte {
	t.Helper()
	b, err := m.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDynRowGobDeterministic: equal matrices are equal bytes — the same
// matrix encoded twice, a second matrix built by the same Set sequence,
// and a decoded copy re-encoded.
func TestDynRowGobDeterministic(t *testing.T) {
	m := churnedForGob()
	want := mustEncode(t, m)
	if !bytes.Equal(mustEncode(t, m), want) {
		t.Fatal("two encodes of one matrix differ")
	}
	if !bytes.Equal(mustEncode(t, churnedForGob()), want) {
		t.Fatal("a replay of the same Set sequence encodes differently")
	}
	var back DynRow
	if err := back.GobDecode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, &back), want) {
		t.Fatal("decode then encode is not the identity")
	}
}

// wireOf decodes the wire struct of an encoded matrix, for tests that
// edit it before handing it back to GobDecode.
func wireOf(t testing.TB, m *DynRow) gobDynRow {
	t.Helper()
	var w gobDynRow
	if err := gob.NewDecoder(bytes.NewReader(mustEncode(t, m))).Decode(&w); err != nil {
		t.Fatal(err)
	}
	return w
}

func encodeWire(t testing.TB, w gobDynRow) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDynRowGobDecodeAnyEntryOrder stands in for a file written before
// cells were sorted: the map-based encoder emitted each cell's entries and
// each block's baseline keys in map order. Such a file must load to the
// same matrix.
func TestDynRowGobDecodeAnyEntryOrder(t *testing.T) {
	m := churnedForGob()
	w := wireOf(t, m)
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(w.EntryRow), func(a, b int) {
		w.EntryRow[a], w.EntryRow[b] = w.EntryRow[b], w.EntryRow[a]
		w.EntryCol[a], w.EntryCol[b] = w.EntryCol[b], w.EntryCol[a]
		w.EntryVal[a], w.EntryVal[b] = w.EntryVal[b], w.EntryVal[a]
	})
	for j := range w.BaseKeys {
		rng.Shuffle(len(w.BaseKeys[j]), func(a, b int) {
			w.BaseKeys[j][a], w.BaseKeys[j][b] = w.BaseKeys[j][b], w.BaseKeys[j][a]
			w.BaseVals[j][a], w.BaseVals[j][b] = w.BaseVals[j][b], w.BaseVals[j][a]
		})
	}
	var back DynRow
	if err := back.GobDecode(encodeWire(t, w)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, &back), mustEncode(t, m)) {
		t.Fatal("a shuffled file decodes to a different matrix")
	}
}

// badWires are encodings GobDecode must refuse; the first three panicked
// before it validated its input.
func badWires(t testing.TB) map[string][]byte {
	edit := func(f func(*gobDynRow)) []byte {
		w := wireOf(t, churnedForGob())
		f(&w)
		return encodeWire(t, w)
	}
	return map[string][]byte{
		"zero columns":        edit(func(w *gobDynRow) { w.Cols = 0 }),
		"entry row past Rows": edit(func(w *gobDynRow) { w.EntryRow[0] = int32(w.Rows) }),
		"short EntryVal":      edit(func(w *gobDynRow) { w.EntryVal = w.EntryVal[:len(w.EntryVal)-1] }),
		"negative rows":       edit(func(w *gobDynRow) { w.Rows = -1 }),
		"more blocks than columns": edit(func(w *gobDynRow) {
			w.Blocks = w.Cols + 1
		}),
		"absurd shape":          edit(func(w *gobDynRow) { w.Rows = 1 << 30 }),
		"negative column":       edit(func(w *gobDynRow) { w.EntryCol[0] = -1 }),
		"column past Cols":      edit(func(w *gobDynRow) { w.EntryCol[0] = int32(w.Cols) }),
		"stored zero":           edit(func(w *gobDynRow) { w.EntryVal[0] = 0 }),
		"stored NaN":            edit(func(w *gobDynRow) { w.EntryVal[0] = math.NaN() }),
		"stored Inf":            edit(func(w *gobDynRow) { w.EntryVal[0] = math.Inf(1) }),
		"duplicate entry":       edit(func(w *gobDynRow) { w.EntryRow[1], w.EntryCol[1] = w.EntryRow[0], w.EntryCol[0] }),
		"short FrobSq":          edit(func(w *gobDynRow) { w.FrobSq = w.FrobSq[:1] }),
		"long DeltaSq":          edit(func(w *gobDynRow) { w.DeltaSq = append(w.DeltaSq, 0) }),
		"missing BaseKeys":      edit(func(w *gobDynRow) { w.BaseKeys = nil }),
		"BaseVals shorter":      edit(func(w *gobDynRow) { w.BaseVals[1] = w.BaseVals[1][:0] }),
		"baseline key off":      edit(func(w *gobDynRow) { w.BaseKeys[1][0] = packKey(0, 0) }),
		"baseline key repeated": edit(func(w *gobDynRow) { w.BaseKeys[1][1] = w.BaseKeys[1][0] }),
		"FrobSq off":            edit(func(w *gobDynRow) { w.FrobSq[0] += 1 }),
		"FrobSq NaN":            edit(func(w *gobDynRow) { w.FrobSq[0] = math.NaN() }),
		"DeltaSq off":           edit(func(w *gobDynRow) { w.DeltaSq[1] += 1 }),
		"baseline NaN":          edit(func(w *gobDynRow) { w.BaseVals[1][0] = math.NaN() }),
		"truncated":             mustEncode(t, churnedForGob())[:40],
	}
}

func TestDynRowGobDecodeRejectsCorruptInput(t *testing.T) {
	for name, data := range badWires(t) {
		t.Run(name, func(t *testing.T) {
			m := NewDynRow(2, 4, 2)
			m.Set(1, 3, 2.5)
			if err := m.GobDecode(data); err == nil {
				t.Fatal("decoded without error")
			}
			// A failed decode leaves the receiver as it was.
			if m.Rows() != 2 || m.Get(1, 3) != 2.5 || m.AuditRecount() != nil {
				t.Fatal("failed decode modified the receiver")
			}
		})
	}
}

// FuzzDynRowGobDecode: whatever the bytes, GobDecode returns an error or a
// matrix that passes AuditRecount — it does not panic.
func FuzzDynRowGobDecode(f *testing.F) {
	f.Add(mustEncode(f, churnedForGob()))
	f.Add(mustEncode(f, NewDynRow(0, 1, 1)))
	for _, data := range badWires(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Keep an exec cheap: a shape the decoder would accept but that
		// costs hundreds of megabytes of empty cells is not what is fuzzed.
		// Return, not Skip: the seeds come from a map, so a skip would land
		// on a different seed#N every run.
		var w gobDynRow
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&w) == nil && w.Blocks > 0 && w.Rows > (1<<16)/w.Blocks {
			return
		}
		var m DynRow
		if err := m.GobDecode(data); err != nil {
			return
		}
		if err := m.AuditRecount(); err != nil {
			t.Fatalf("decoded a matrix that fails its audit: %v", err)
		}
		// And it is usable: a write and a freeze go through.
		if m.Rows() > 0 {
			m.Set(0, 0, 1.5)
		}
		m.ToCSR()
	})
}
