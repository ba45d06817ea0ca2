package treesvd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
	"github.com/tree-svd/treesvd/internal/wal"
	"github.com/tree-svd/treesvd/internal/wire"
)

// appendFooter seals buf's gob payload with the integrity footer.
func appendFooter(buf *bytes.Buffer) {
	buf.Write(wire.Footer(buf.Bytes()))
}

// rawGob carries a GobEncoder field's bytes through a decode/encode round
// trip untouched, so a test can edit the wire form of a type whose own
// encoder only ever emits well-formed bytes.
type rawGob []byte

func (r rawGob) GobEncode() ([]byte, error) { return r, nil }
func (r *rawGob) GobDecode(b []byte) error  { *r = append(rawGob(nil), b...); return nil }

// edit decodes the carried bytes into wire, lets mutate change it, and
// carries the re-encoded result instead.
func (r *rawGob) edit(wire any, mutate func()) {
	must0tb(gob.NewDecoder(bytes.NewReader(*r)).Decode(wire))
	mutate()
	var buf bytes.Buffer
	must0tb(gob.NewEncoder(&buf).Encode(wire))
	*r = buf.Bytes()
}

// rawSaved is savedEmbedder with the graph and the PPR states left as
// their encoders' bytes.
type rawSaved struct {
	Version int
	Config  Config
	Subset  []int32
	Graph   rawGob
	Fwd     []rawGob
	Rev     []rawGob
	M       *sparse.DynRow
	Tree    *core.TreeSnapshot
}

// rawGraph and rawState mirror the wire structs of graph.Graph and
// ppr.State (gob matches fields by name).
type rawGraph struct {
	Version                      uint8
	N                            int
	OutPtr, OutAdj, InPtr, InAdj []int32
}

type rawState struct {
	Source              int32
	Dir                 uint8
	PKeys, RKeys, TKeys []int32
	PVals, RVals        []float64
}

// repeatOutEdge overwrites the second out-neighbour of the first node with
// two of them by its first, so that node's out-list names one edge twice.
func repeatOutEdge(w *rawGraph) {
	for v := 0; v < w.N; v++ {
		if lo := w.OutPtr[v]; w.OutPtr[v+1]-lo >= 2 {
			w.OutAdj[lo+1] = w.OutAdj[lo]
			return
		}
	}
	panic("healthy save has no node with two out-neighbours")
}

// addAt adds delta to the value keys stores under k, appending k if absent.
func addAt(keys *[]int32, vals *[]float64, k int32, delta float64) {
	for i, key := range *keys {
		if key == k {
			(*vals)[i] += delta
			return
		}
	}
	*keys, *vals = append(*keys, k), append(*vals, delta)
}

// nonCanonicalStates are the wire forms of a PPR state that no encoder
// emits and the decoder must refuse, because the repair skip reads an
// unset membership bit as "estimate and residue are zero here": a key
// stored twice, a stored zero, a non-finite value.
var nonCanonicalStates = []struct {
	name    string
	mutate  func(*rawState)
	wantSub string
}{
	{"state key stored twice", func(w *rawState) {
		w.PKeys, w.PVals = append(w.PKeys, w.PKeys[0]), append(w.PVals, w.PVals[0])
	}, "repeats 1 of its"},
	{"state stores a zero", func(w *rawState) { w.RVals[0] = 0 }, "non-canonical residue value 0"},
	{"state stores an infinity", func(w *rawState) { w.PVals[0] = math.Inf(1) }, "non-canonical estimate value +Inf"},
}

// healthySave is the save of a small embedder one batch past its build.
func healthySave() []byte {
	rng := rand.New(rand.NewSource(9))
	g := buildGraph(rng, 30, 120)
	emb := mustTB(New(g, []int32{1, 3, 5, 7}, Config{Dim: 4, MaxNodes: 40}))
	mustTB(emb.ApplyEvents(bgt, []Event{{U: 0, V: 9, Type: Insert}, {U: 2, V: 11, Type: Insert}}))
	var buf bytes.Buffer
	must0tb(emb.Save(&buf))
	return buf.Bytes()
}

// corruptSave decodes a healthy embedder's save into the wire
// struct W (savedEmbedder, or rawSaved to reach below the nested
// encoders), lets mutate corrupt it, and re-encodes. The result is a
// structurally valid gob stream carrying inconsistent state — exactly
// what a hand-edited or partially overwritten save file looks like.
func corruptSave[W any](t testing.TB, mutate func(*W)) []byte {
	t.Helper()
	var saved W
	if err := gob.NewDecoder(bytes.NewReader(healthySave())).Decode(&saved); err != nil {
		t.Fatal(err)
	}
	mutate(&saved)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&saved); err != nil {
		t.Fatal(err)
	}
	// Re-seal with a valid footer: these cases model semantic corruption
	// that a checksum cannot catch, so the integrity layer must pass and
	// the structural validation must do the rejecting.
	appendFooter(&out)
	return out.Bytes()
}

// blockNode returns the first level-1 node of a save's tree that holds a
// factor.
func blockNode(s *savedEmbedder) *core.SavedNode {
	for j := range s.Tree.Levels[0] {
		if n := &s.Tree.Levels[0][j]; len(n.S) > 0 {
			return n
		}
	}
	panic("healthy save has no non-empty level-1 node")
}

// rootNode returns the root of a save's tree.
func rootNode(s *savedEmbedder) *core.SavedNode {
	levels := s.Tree.Levels
	return &levels[len(levels)-1][0]
}

// widen replaces node n's factor with a cols-wide one: every column a copy
// of its first, over a descending spectrum starting at its first value.
func widen(n *core.SavedNode, cols int) {
	u, sv := linalg.NewDense(n.U.Rows, cols), make([]float64, cols)
	for c := range sv {
		sv[c] = n.S[0] / float64(c+1)
		for i := 0; i < u.Rows; i++ {
			u.Row(i)[c] = n.U.At(i, 0)
		}
	}
	n.U, n.S = u, sv
}

// TestLoadRejectsCorruptedSaves is the ISSUE 3 regression for Load
// trusting its input: each corruption used to slip through Load and
// panic on first use (or corrupt results silently). All must now be
// rejected at Load with a descriptive error.
func TestLoadRejectsCorruptedSaves(t *testing.T) {
	check := func(name string, data []byte, wantSub string, wantCorrupt bool) {
		t.Run(name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(data))
			if err == nil {
				t.Fatal("Load accepted the corrupted save")
			}
			if !strings.Contains(err.Error(), wantSub) {
				t.Errorf("error %q does not mention %q", err, wantSub)
			}
			var corrupt *CorruptStateError
			if got := errors.As(err, &corrupt); got != wantCorrupt {
				t.Errorf("error %q: *CorruptStateError = %v, want %v", err, got, wantCorrupt)
			}
		})
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*savedEmbedder)
		wantSub string // substring expected in the error
	}{
		{"subset id out of range", func(s *savedEmbedder) { s.Subset[0] = 999 }, "subset node 999"},
		{"negative subset id", func(s *savedEmbedder) { s.Subset[1] = -2 }, "subset node -2"},
		{"duplicate subset ids", func(s *savedEmbedder) { s.Subset[1] = s.Subset[0] }, "duplicate subset node"},
		{"missing graph", func(s *savedEmbedder) { s.Graph = nil }, "missing graph"},
		{"missing proximity matrix", func(s *savedEmbedder) { s.M = nil }, "missing proximity"},
		{"missing tree snapshot", func(s *savedEmbedder) { s.Tree = nil }, "missing tree"},
		{"empty subset", func(s *savedEmbedder) { s.Subset = nil }, "empty subset"},
		{"forward state count mismatch", func(s *savedEmbedder) { s.Fwd = s.Fwd[:2] }, "states for a subset"},
		{"state source mismatch", func(s *savedEmbedder) {
			f := s.Fwd
			f[0], f[1] = f[1], f[0]
		}, "source"},
		{"state direction mismatch", func(s *savedEmbedder) { s.Rev[0] = s.Fwd[0] }, "direction"},
		{"tree block count mismatch", func(s *savedEmbedder) {
			s.Tree.Levels[0] = s.Tree.Levels[0][:1]
		}, "level-1 nodes"},
		{"built without root", func(s *savedEmbedder) { rootNode(s).U = nil }, "root has no basis"},
		{"root rank mismatch", func(s *savedEmbedder) { n := rootNode(s); n.S = n.S[:1] }, "singular values"},
		// Cached factors with the right shapes and a non-finite entry.
		{"NaN in a level-1 cache", func(s *savedEmbedder) { blockNode(s).U.Data[0] = math.NaN() }, "non-finite"},
		{"Inf in an upper cache", func(s *savedEmbedder) { s.Tree.Levels[1][0].U.Data[0] = math.Inf(1) }, "non-finite"},
		{"NaN in the root factor", func(s *savedEmbedder) { rootNode(s).U.Data[1] = math.NaN() }, "non-finite"},
		// The scalar factors: +Inf passed a NaN-or-negative check and the audit.
		{"Inf tail energy", func(s *savedEmbedder) { s.Tree.Levels[0][0].Tail = math.Inf(1) }, "tail energy +Inf"},
		{"Inf root singular value", func(s *savedEmbedder) { rootNode(s).S[0] = math.Inf(1) }, "singular value 0 is +Inf"},
		// A level-1 node is held to every invariant an upper node is.
		{"level-1 cache wider than the rank", func(s *savedEmbedder) { widen(blockNode(s), s.Config.Dim+1) }, "exceeds configured rank"},
		{"level-1 spectrum not descending", func(s *savedEmbedder) {
			n := blockNode(s)
			widen(n, 2)
			n.S[0], n.S[1] = n.S[1], n.S[0]
		}, "spectrum not descending"},
		{"NaN level-1 singular value", func(s *savedEmbedder) { blockNode(s).S[0] = math.NaN() }, "singular value 0 is NaN"},
		// The projection P an upper node's next refine starts from.
		{"projection of the wrong shape", func(s *savedEmbedder) {
			n := rootNode(s)
			n.P = n.P.SliceCols(0, n.P.Cols-1)
		}, "projection P is"},
		{"NaN in a projection", func(s *savedEmbedder) { rootNode(s).P.Data[0] = math.NaN() }, "projection P holds NaN"},
		{"absurd projection entry", func(s *savedEmbedder) { rootNode(s).P.Data[0] = 1e300 }, "projection P holds 1e+300"},
		{"projection on a level-1 node", func(s *savedEmbedder) {
			n := blockNode(s)
			n.P = linalg.NewDense(len(n.S), 1)
		}, "level-1 node and carries a projection P"},
		{"upper node without its projection", func(s *savedEmbedder) { s.Tree.Levels[1][0].P = nil }, "has no projection P"},
	} {
		check(tc.name, corruptSave(t, tc.mutate), tc.wantSub, true)
	}
	// The decoder panics fuzzing found: wire forms no encoder emits.
	for _, tc := range []struct {
		name    string
		mutate  func(*rawSaved)
		wantSub string
	}{
		{"graph offsets out of range", func(s *rawSaved) {
			var w rawGraph
			s.Graph.edit(&w, func() { w.OutPtr[1] = -26 })
		}, "out-offsets"},
		{"graph negative node count", func(s *rawSaved) {
			var w rawGraph
			s.Graph.edit(&w, func() { w.N = -1 })
		}, "node count -1"},
		{"graph neighbour out of range", func(s *rawSaved) {
			var w rawGraph
			s.Graph.edit(&w, func() { w.InAdj[0] = int32(w.N) })
		}, "in-neighbour"},
		// Adjacency that used to load and panic at the first DeleteEdge of
		// the edge it lost, in the update stage nothing recovers.
		{"graph in-list lacks an edge", func(s *rawSaved) {
			var w rawGraph
			s.Graph.edit(&w, func() {
				w.InAdj = w.InAdj[:len(w.InAdj)-1]
				for i := range w.InPtr {
					w.InPtr[i] = min(w.InPtr[i], int32(len(w.InAdj)))
				}
			})
		}, "transpose"},
		{"graph repeats an edge", func(s *rawSaved) {
			var w rawGraph
			s.Graph.edit(&w, func() { repeatOutEdge(&w) })
		}, "repeat 1 edges"},
		{"state values shorter than keys", func(s *rawSaved) {
			var w rawState
			s.Fwd[0].edit(&w, func() { w.PVals = w.PVals[:len(w.PVals)-1] })
		}, "keys/values"},
		// RestoreSubset range-checks a key against the graph; the decoder
		// refuses a negative one before it reaches the state's table.
		{"estimate key out of range", func(s *rawSaved) {
			var w rawState
			s.Fwd[0].edit(&w, func() { addAt(&w.PKeys, &w.PVals, 500, 0.1) })
		}, "estimate key 500"},
		{"residue key out of range", func(s *rawSaved) {
			var w rawState
			s.Rev[1].edit(&w, func() { addAt(&w.RKeys, &w.RVals, -3, 0.1) })
		}, "residue key -3"},
		{"NaN residue", func(s *rawSaved) {
			var w rawState
			s.Fwd[0].edit(&w, func() { addAt(&w.RKeys, &w.RVals, w.Source, math.NaN()) })
		}, "non-canonical residue value NaN"},
		// A residue the decoders accept but the auditors do not: Load audits
		// before it publishes, as Open always has.
		{"residue above the push threshold", func(s *rawSaved) {
			var w rawState
			s.Fwd[0].edit(&w, func() {
				addAt(&w.RKeys, &w.RVals, w.Source, 0.5)
				addAt(&w.PKeys, &w.PVals, w.Source, -0.5)
			})
		}, "invariant audit"},
	} {
		check(tc.name, corruptSave(t, tc.mutate), tc.wantSub, true)
	}
	for _, tc := range nonCanonicalStates {
		check(tc.name, corruptSave(t, func(s *rawSaved) {
			var w rawState
			s.Fwd[0].edit(&w, func() { tc.mutate(&w) })
		}), tc.wantSub, true)
	}
	// Another format version is a refusal, not damage: a plain error that
	// names both versions.
	older := func(s *savedEmbedder) { s.Version = persistVersion - 1 }
	bothVersions := fmt.Sprintf("version %d, want %d", persistVersion-1, persistVersion)
	check("version mismatch", corruptSave(t, func(s *savedEmbedder) { s.Version = 99 }), "version 99", false)
	check("older version", corruptSave(t, older), bothVersions, false)
	// The same refusal through Open: a store whose only checkpoint carries
	// another format version is not "no state" and not damage to fall back
	// past — the version error comes back as is.
	t.Run("open older version checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		must0tb(wal.WriteCheckpoint(wal.OS, dir, 0, corruptSave(t, older)))
		_, err := Open(dir, DurableConfig{})
		var corrupt *CorruptStateError
		if err == nil || !strings.Contains(err.Error(), bothVersions) ||
			errors.Is(err, ErrNoState) || errors.As(err, &corrupt) {
			t.Fatalf("Open = %v, want the plain %q error", err, bothVersions)
		}
	})
}

// TestLoadRejectsTruncatedStream: a save cut off mid-stream must fail at
// decode, never produce a half-restored embedder.
func TestLoadRejectsTruncatedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := buildGraph(rng, 20, 80)
	emb, err := New(g, []int32{0, 1, 2}, Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, frac := range []int{4, 2} {
		if _, err := Load(bytes.NewReader(raw[:len(raw)/frac])); err == nil {
			t.Errorf("Load accepted a stream truncated to 1/%d", frac)
		}
	}
}

// legacyTreeSave is a healthy save whose tree snapshot is encoded from a
// struct that carries, beside the current layout, every field name an
// earlier layout persisted, populated: the per-block factors of the
// removed update path and the split level-1 / upper / root layout of
// version 6.
func legacyTreeSave(t testing.TB) []byte {
	type legacyTree struct {
		Levels                     [][]core.SavedNode
		Seq                        int64
		Built                      bool
		Level1US, Level1U, Level1V []*linalg.Dense
		Level1S                    [][]float64
		Level1Tail, Level1UpdErr   []float64
		Level1Seq                  []int64
		UpperU                     [][]*linalg.Dense
		UpperS                     [][][]float64
		UpperTail                  [][]float64
		RootU, RootV               *linalg.Dense
		RootS                      []float64
		RootTail                   float64
	}
	type legacySaved struct {
		Version int
		Config  Config
		Subset  []int32
		Graph   rawGob
		Fwd     []rawGob
		Rev     []rawGob
		M       *sparse.DynRow
		Tree    *legacyTree
	}
	return corruptSave(t, func(s *legacySaved) {
		tr := s.Tree
		for _, n := range tr.Levels[0] {
			tr.Level1US, tr.Level1U, tr.Level1V = append(tr.Level1US, n.U), append(tr.Level1U, n.U), append(tr.Level1V, n.U)
			tr.Level1S, tr.Level1Tail = append(tr.Level1S, n.S), append(tr.Level1Tail, n.Tail)
			tr.Level1UpdErr, tr.Level1Seq = append(tr.Level1UpdErr, 0.5), append(tr.Level1Seq, tr.Seq)
		}
		top := len(tr.Levels) - 1
		for _, level := range tr.Levels[1:top] {
			var us []*linalg.Dense
			var ss [][]float64
			var tails []float64
			for _, n := range level {
				us, ss, tails = append(us, n.U), append(ss, n.S), append(tails, n.Tail)
			}
			tr.UpperU, tr.UpperS, tr.UpperTail = append(tr.UpperU, us), append(tr.UpperS, ss), append(tr.UpperTail, tails)
		}
		root := tr.Levels[top][0]
		tr.RootU, tr.RootV, tr.RootS, tr.RootTail = root.U, root.U, root.S, root.Tail
	})
}

// TestLoadIgnoresRetiredTreeFields: gob drops the fields the snapshot no
// longer declares, so a save that still carries them loads to the same
// embedder as one without them. No current field reuses a retired name.
func TestLoadIgnoresRetiredTreeFields(t *testing.T) {
	legacy := legacyTreeSave(t)
	if plain := healthySave(); len(legacy) <= len(plain) {
		t.Fatalf("legacy save is %d bytes, plain %d: the retired fields were not encoded", len(legacy), len(plain))
	}
	got := mustTB(Load(bytes.NewReader(legacy)))
	want := mustTB(Load(bytes.NewReader(healthySave())))
	if !reflect.DeepEqual(got.Embedding(), want.Embedding()) {
		t.Fatal("embedding differs from the save without the retired fields")
	}
	if err := got.Audit(); err != nil {
		t.Fatal(err)
	}
	current := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(core.TreeSnapshot{}), reflect.TypeOf(core.SavedNode{})} {
		for i := 0; i < typ.NumField(); i++ {
			current[typ.Field(i).Name] = true
		}
	}
	for _, name := range []string{"Level1US", "Level1U", "Level1V", "Level1S", "Level1Tail", "Level1UpdErr", "Level1Seq",
		"UpperU", "UpperS", "UpperTail", "RootU", "RootV", "RootS", "RootTail"} {
		if current[name] {
			t.Errorf("the tree snapshot reuses the retired field name %s", name)
		}
	}
}

// TestLoadIgnoresRetiredSelfCheck: a save whose Config still carries the
// removed SelfCheck field, set, loads to the same embedder and saves back
// to the bytes of a save that never had it.
func TestLoadIgnoresRetiredSelfCheck(t *testing.T) {
	type legacyConfig struct {
		Dim                          int
		Alpha, RMax                  float64
		Branch, Levels               int
		Delta                        float64
		MaxNodes                     int
		Seed                         int64
		SelfCheck                    bool
		Workers, Shards              int
		SVDUpdate                    bool
		UpdateMaxRel, UpdateTailFrac float64
		PushAccel                    PushAccel
	}
	type legacySaved struct {
		Version int
		Config  legacyConfig
		Subset  []int32
		Graph   rawGob
		Fwd     []rawGob
		Rev     []rawGob
		M       *sparse.DynRow
		Tree    *core.TreeSnapshot
	}
	legacy := corruptSave(t, func(s *legacySaved) { s.Config.SelfCheck = true })
	if len(legacy) <= len(healthySave()) {
		t.Fatal("the legacy save does not encode SelfCheck")
	}
	got := mustTB(Load(bytes.NewReader(legacy)))
	var resaved bytes.Buffer
	must0tb(got.Save(&resaved))
	if !bytes.Equal(resaved.Bytes(), healthySave()) {
		t.Fatal("a loaded legacy save does not save back to the current bytes")
	}
}

// FuzzLoad is the decoder property over the one save format: for any
// payload whose checksum verifies, Load returns an error or an embedder
// whose Audit is clean and that serves a read — one Recommend and the
// whole Embedding — never a panic. The seeds are a healthy save, one
// carrying the retired tree-snapshot fields, one with an infinite root
// singular value and the three non-canonical PPR states, without their
// footers; every mutated payload is re-sealed with a valid one, since
// otherwise the CRC would reject them all and nothing behind it would run.
func FuzzLoad(f *testing.F) {
	seeds := [][]byte{healthySave(), legacyTreeSave(f),
		corruptSave(f, func(s *savedEmbedder) { rootNode(s).S[0] = math.Inf(1) })}
	for _, tc := range nonCanonicalStates {
		seeds = append(seeds, corruptSave(f, func(s *rawSaved) {
			var w rawState
			s.Rev[1].edit(&w, func() { tc.mutate(&w) })
		}))
	}
	for _, save := range seeds {
		f.Add(save[:len(save)-wire.FooterLen])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		buf := bytes.NewBuffer(append([]byte(nil), payload...))
		appendFooter(buf)
		emb, err := Load(buf)
		if err != nil {
			return
		}
		if err := emb.Audit(); err != nil {
			t.Fatalf("Load accepted a state that fails its audit: %v", err)
		}
		if _, err := emb.Recommend(emb.Subset()[0], 3); err != nil {
			t.Fatalf("Load accepted a state that cannot serve a read: %v", err)
		}
		emb.Embedding()
	})
}
