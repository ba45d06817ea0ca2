package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// fuzzConfig is FuzzRestoreTree's tree: rank 3, fan-in 2, over the 8
// blocks of fuzzMatrix, so four levels.
var fuzzConfig = Config{Rank: 3, Branch: 2, Levels: 4, Delta: 0.65, Seed: 1}

// fuzzMatrix is FuzzRestoreTree's fixed DynRow: 6 rows by 48 columns in 8
// blocks, low rank plus noise, every baseline reset so that only the
// blocks an input edits violate Eqn. 2. It is rebuilt for every input,
// since an Update resets the baselines it factors.
func fuzzMatrix() *sparse.DynRow {
	m := sparse.NewDynRow(6, 48, 8)
	fillLowRank(rand.New(rand.NewSource(41)), m, 3, 0.05, 0.6)
	for j := 0; j < m.NumBlocks(); j++ {
		m.MarkRebuilt(j)
	}
	return m
}

// encodeSnapshot is the saved form of a tree snapshot.
func encodeSnapshot(_ testing.TB, snap *TreeSnapshot) []byte { return snap.AppendEncoded(nil) }

// FuzzRestoreTree is the tree decoder's property on its own: for any
// bytes that DecodeTreeSnapshot reads, RestoreTree over fuzzMatrix
// returns an error or a tree that passes AuditShapes and survives an
// Update that re-factors block 0 and merges its ancestors over the
// restored nodes — never a panic or an error. The seeds are an unbuilt
// snapshot, a built one, and built ones with a level-1 node wider than
// the rank, a non-descending level-1 spectrum, a NaN and a 1e300 level-1
// singular value, and a level-2 basis entry of 1e200 (the last two are
// finite, and before RestoreTree bounded magnitudes they made the Update
// fail in the eigensolver); then a level-2 projection P of the wrong
// shape, with a NaN and with a 1e300 entry, missing, and a P on a
// level-1 node.
func FuzzRestoreTree(f *testing.F) {
	tr := mustCore(NewTree(fuzzMatrix(), fuzzConfig))
	f.Add(encodeSnapshot(f, tr.Snapshot()))
	must0t(tr.Build(bgt))
	f.Add(encodeSnapshot(f, tr.Snapshot()))
	for _, c := range []struct {
		level   int
		corrupt func(n *SavedNode)
	}{
		{0, func(n *SavedNode) { widenNode(n, fuzzConfig.Rank+1) }},
		{0, func(n *SavedNode) { widenNode(n, 2); n.S[0], n.S[1] = n.S[1], n.S[0] }},
		{0, func(n *SavedNode) { n.S[0] = math.NaN() }},
		{0, func(n *SavedNode) { n.S[0] = 1e300 }},
		{1, func(n *SavedNode) { n.U.Data[0] = 1e200 }},
		{1, func(n *SavedNode) { n.P = n.P.SliceCols(0, n.P.Cols-1) }},
		{1, func(n *SavedNode) { n.P.Data[0] = math.NaN() }},
		{1, func(n *SavedNode) { n.P.Data[0] = 1e300 }},
		{1, func(n *SavedNode) { n.P = nil }},
		{0, func(n *SavedNode) { n.P = linalg.NewDense(len(n.S), 2) }},
	} {
		snap := tr.Snapshot() // fresh level slices; U, S and P are the live tree's
		n := &snap.Levels[c.level][1]
		u := *n.U
		u.Data, n.U, n.S = slices.Clone(u.Data), &u, slices.Clone(n.S)
		if n.P != nil {
			p := *n.P
			p.Data, n.P = slices.Clone(p.Data), &p
		}
		c.corrupt(n)
		f.Add(encodeSnapshot(f, snap))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeTreeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(snap.AppendEncoded(nil), data) || snap.EncodedLen() != len(data) {
			t.Fatal("a decoded snapshot does not encode back to its bytes")
		}
		m := fuzzMatrix()
		tr, err := RestoreTree(m, fuzzConfig, snap)
		if err != nil {
			return
		}
		if err := tr.AuditShapes(); err != nil {
			t.Fatalf("RestoreTree accepted a tree that fails AuditShapes: %v", err)
		}
		lo, hi := m.BlockRange(0)
		for c := lo; c < hi; c++ {
			m.Set(0, c, m.Get(0, c)+10)
		}
		if _, err := tr.Update(bgt); err != nil {
			t.Fatalf("Update of a restored tree: %v", err)
		}
	})
}

// widenNode replaces node n's factor with a cols-wide one: every column a
// copy of its first, over a descending spectrum starting at its first
// value.
func widenNode(n *SavedNode, cols int) {
	u, s := linalg.NewDense(n.U.Rows, cols), make([]float64, cols)
	for c := range s {
		s[c] = n.S[0] / float64(c+1)
		for i := 0; i < u.Rows; i++ {
			u.Row(i)[c] = n.U.At(i, 0)
		}
	}
	n.U, n.S = u, s
}

// TestDecodeTreeSnapshotRefusesBadFraming: a count that runs past the
// bytes behind it, a truncated snapshot, bytes after its last column, a
// matrix whose shape disagrees with its values and an unknown matrix tag
// are refused before anything is sized from them.
func TestDecodeTreeSnapshotRefusesBadFraming(t *testing.T) {
	tr := mustCore(NewTree(fuzzMatrix(), fuzzConfig))
	must0t(tr.Build(bgt))
	clean := encodeSnapshot(t, tr.Snapshot())
	past := slices.Clone(clean)
	past[9+7] = 0x7f // the top byte of the level count, after Seq and Built
	snap := tr.Snapshot()
	n := &snap.Levels[0][0]
	u := *n.U
	u.Rows++
	n.U = &u
	tag := slices.Clone(clean)
	tag[9+8+8] = 2 // the first node's U tag, after the level and node counts
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"count past the end": {past, "column: "},
		"truncated":          {clean[:len(clean)-1], "column: "},
		"trailing bytes":     {append(slices.Clone(clean), 0), "column: "},
		"shape over values":  {encodeSnapshot(t, snap), "matrix over"},
		"matrix tag":         {tag, "matrix tag 2"},
	} {
		if _, err := DecodeTreeSnapshot(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeTreeSnapshot = %v, want an error containing %q", name, err, tc.want)
		}
	}
}
