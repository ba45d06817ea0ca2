package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"slices"
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

// encodeSnapshot is the gob form of a tree snapshot.
func encodeSnapshot(t testing.TB, snap *TreeSnapshot) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestoreTree is the tree decoder's property on its own: for any gob
// bytes that decode to a TreeSnapshot, RestoreTree over fuzzMatrix
// returns an error or a tree that passes AuditShapes and survives an
// Update that re-factors block 0 and merges its ancestors over the
// restored nodes — never a panic or an error. The seeds are an unbuilt
// snapshot, a built one, and built ones with a level-1 node wider than
// the rank, a non-descending level-1 spectrum, a NaN and a 1e300 level-1
// singular value, and a level-2 basis entry of 1e200: the last two are
// finite, and before RestoreTree bounded magnitudes they made the Update
// fail in the eigensolver.
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
	} {
		snap := tr.Snapshot() // fresh level slices; U and S are the live tree's
		n := &snap.Levels[c.level][1]
		u := *n.U
		u.Data, n.U, n.S = slices.Clone(u.Data), &u, slices.Clone(n.S)
		c.corrupt(n)
		f.Add(encodeSnapshot(f, snap))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap TreeSnapshot
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&snap) != nil {
			return
		}
		m := fuzzMatrix()
		tr, err := RestoreTree(m, fuzzConfig, &snap)
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
