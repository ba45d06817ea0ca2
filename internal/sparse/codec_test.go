package sparse

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/column"
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

	m2, err := DecodeDynRow(mustEncode(t, m))
	if err != nil {
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

// mustEncode is m's saved form, checked against EncodedLen.
func mustEncode(t testing.TB, m *DynRow) []byte {
	t.Helper()
	b := m.AppendEncoded(nil)
	if len(b) != m.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(b), m.EncodedLen())
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
	back, err := DecodeDynRow(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, back), want) {
		t.Fatal("decode then encode is not the identity")
	}
}

// wireOf reads the saved columns of an encoded matrix, for tests that
// edit them before handing them back to DecodeDynRow.
func wireOf(t testing.TB, m *DynRow) dynRowCols {
	t.Helper()
	w, err := readDynRowCols(mustEncode(t, m))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// encodeWire lays w out as AppendEncoded does.
func encodeWire(w dynRowCols) []byte {
	var b []byte
	for _, v := range []int32{w.Rows, w.Cols, w.Blocks} {
		b = column.AppendUint32(b, uint32(v))
	}
	b = column.AppendInt32s(b, w.EntryRow)
	b = column.AppendInt32s(b, w.EntryCol)
	b = column.AppendFloat64s(b, w.EntryVal)
	b = column.AppendFloat64s(b, w.FrobSq)
	b = column.AppendFloat64s(b, w.DeltaSq)
	b = column.AppendUint64(b, uint64(len(w.BaseKeys)))
	for _, keys := range w.BaseKeys {
		b = column.AppendInt64s(b, keys)
	}
	b = column.AppendUint64(b, uint64(len(w.BaseVals)))
	for _, vals := range w.BaseVals {
		b = column.AppendFloat64s(b, vals)
	}
	return b
}

// TestDynRowGobDecodeAnyEntryOrder: DecodeDynRow takes a cell's entries and
// a block's baseline keys in any order, so a file with them shuffled
// loads to the same matrix.
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
	back, err := DecodeDynRow(encodeWire(w))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, back), mustEncode(t, m)) {
		t.Fatal("a shuffled file decodes to a different matrix")
	}
}

// badWires are encodings DecodeDynRow must refuse; the first three
// panicked before the decoder validated its input. The last two break
// the framing: the count of EntryRow, after the 12-byte shape, runs past
// the end, and a byte follows the last column.
func badWires(t testing.TB) map[string][]byte {
	edit := func(f func(*dynRowCols)) []byte {
		w := wireOf(t, churnedForGob())
		f(&w)
		return encodeWire(w)
	}
	clean := mustEncode(t, churnedForGob())
	past := slices.Clone(clean)
	past[12+7] = 0x7f
	return map[string][]byte{
		"zero columns":        edit(func(w *dynRowCols) { w.Cols = 0 }),
		"entry row past Rows": edit(func(w *dynRowCols) { w.EntryRow[0] = int32(w.Rows) }),
		"short EntryVal":      edit(func(w *dynRowCols) { w.EntryVal = w.EntryVal[:len(w.EntryVal)-1] }),
		"negative rows":       edit(func(w *dynRowCols) { w.Rows = -1 }),
		"more blocks than columns": edit(func(w *dynRowCols) {
			w.Blocks = w.Cols + 1
		}),
		"absurd shape":          edit(func(w *dynRowCols) { w.Rows = 1 << 30 }),
		"negative column":       edit(func(w *dynRowCols) { w.EntryCol[0] = -1 }),
		"column past Cols":      edit(func(w *dynRowCols) { w.EntryCol[0] = int32(w.Cols) }),
		"stored zero":           edit(func(w *dynRowCols) { w.EntryVal[0] = 0 }),
		"stored NaN":            edit(func(w *dynRowCols) { w.EntryVal[0] = math.NaN() }),
		"stored Inf":            edit(func(w *dynRowCols) { w.EntryVal[0] = math.Inf(1) }),
		"duplicate entry":       edit(func(w *dynRowCols) { w.EntryRow[1], w.EntryCol[1] = w.EntryRow[0], w.EntryCol[0] }),
		"short FrobSq":          edit(func(w *dynRowCols) { w.FrobSq = w.FrobSq[:1] }),
		"long DeltaSq":          edit(func(w *dynRowCols) { w.DeltaSq = append(w.DeltaSq, 0) }),
		"missing BaseKeys":      edit(func(w *dynRowCols) { w.BaseKeys = nil }),
		"BaseVals shorter":      edit(func(w *dynRowCols) { w.BaseVals[1] = w.BaseVals[1][:0] }),
		"baseline key off":      edit(func(w *dynRowCols) { w.BaseKeys[1][0] = packKey(0, 0) }),
		"baseline key repeated": edit(func(w *dynRowCols) { w.BaseKeys[1][1] = w.BaseKeys[1][0] }),
		"FrobSq off":            edit(func(w *dynRowCols) { w.FrobSq[0] += 1 }),
		"FrobSq NaN":            edit(func(w *dynRowCols) { w.FrobSq[0] = math.NaN() }),
		"DeltaSq off":           edit(func(w *dynRowCols) { w.DeltaSq[1] += 1 }),
		"baseline NaN":          edit(func(w *dynRowCols) { w.BaseVals[1][0] = math.NaN() }),
		"truncated":             clean[:40],
		"column past the end":   past,
		"trailing bytes":        append(slices.Clone(clean), 0),
	}
}

func TestDynRowGobDecodeRejectsCorruptInput(t *testing.T) {
	for name, data := range badWires(t) {
		t.Run(name, func(t *testing.T) {
			m, err := DecodeDynRow(data)
			if err == nil || m != nil {
				t.Fatal("decoded without error")
			}
			if framing := strings.Contains(name, "past the end") || name == "trailing bytes"; framing && !strings.Contains(err.Error(), "column: ") {
				t.Fatalf("error %q is not the column framing error", err)
			}
		})
	}
}

// FuzzDynRowGobDecode (named when the saved form was gob): whatever the
// bytes, DecodeDynRow returns an error or a matrix that passes
// AuditRecount — it does not panic.
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
		if w, err := readDynRowCols(data); err == nil && w.Blocks > 0 && w.Rows > (1<<16)/w.Blocks {
			return
		}
		m, err := DecodeDynRow(data)
		if err != nil {
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
