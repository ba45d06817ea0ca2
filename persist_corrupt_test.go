package treesvd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/column"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/wal"
	"github.com/tree-svd/treesvd/internal/wire"
)

// appendFooter seals buf's payload with the integrity footer.
func appendFooter(buf *bytes.Buffer) {
	buf.Write(wire.Footer(buf.Bytes()))
}

// joinSave lays a save out from a header value and raw sections, as
// savedEmbedder.encode does, and seals it: hdr may be any struct gob can
// encode, so a test can write a header no encoder emits.
func joinSave(t testing.TB, hdr any, sec *saveSections) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(hdr); err != nil {
		t.Fatal(err)
	}
	b := column.AppendUint64(buf.Bytes(), uint64(len(sec.Fwd)))
	b = column.AppendUint64(b, uint64(len(sec.Rev)))
	for _, part := range slices.Concat([][]byte{sec.Graph}, sec.Fwd, sec.Rev, [][]byte{sec.M, sec.Tree}) {
		b = append(column.AppendUint64(b, uint64(len(part))), part...)
	}
	return append(b, wire.Footer(b)...)
}

// sectionsOf splits a save into its header and raw sections.
func sectionsOf(t testing.TB, data []byte) *saveSections {
	t.Helper()
	sec, err := splitSave(data[:len(data)-wire.FooterLen], "")
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// rawGraph and rawState mirror the saved layouts of graph.Graph and
// ppr.State, so a test can write a part no encoder emits.
type rawGraph struct {
	N                            int32
	OutPtr, OutAdj, InPtr, InAdj []int32
}

func readRawGraph(t testing.TB, b []byte) rawGraph {
	r := column.NewReader(b)
	w := rawGraph{N: r.Int32(), OutPtr: r.Int32s(), OutAdj: r.Int32s(), InPtr: r.Int32s(), InAdj: r.Int32s()}
	must0tb(r.Done())
	return w
}

func (w rawGraph) encode() []byte {
	b := column.AppendUint32(nil, uint32(w.N))
	for _, col := range [][]int32{w.OutPtr, w.OutAdj, w.InPtr, w.InAdj} {
		b = column.AppendInt32s(b, col)
	}
	return b
}

type rawState struct {
	Source              int32
	Dir                 uint8
	PKeys, RKeys, TKeys []int32
	PVals, RVals        []float64
}

func readRawState(t testing.TB, b []byte) rawState {
	r := column.NewReader(b)
	w := rawState{Source: r.Int32(), Dir: r.Byte()}
	w.PKeys, w.PVals, w.RKeys, w.RVals, w.TKeys = r.Int32s(), r.Float64s(), r.Int32s(), r.Float64s(), r.Int32s()
	must0tb(r.Done())
	return w
}

func (w rawState) encode() []byte {
	b := append(column.AppendUint32(nil, uint32(w.Source)), w.Dir)
	b = column.AppendInt32s(b, w.PKeys)
	b = column.AppendFloat64s(b, w.PVals)
	b = column.AppendInt32s(b, w.RKeys)
	b = column.AppendFloat64s(b, w.RVals)
	return column.AppendInt32s(b, w.TKeys)
}

// editGraph and editState rewrite one part of a split save through its
// mirror.
func editGraph(t testing.TB, sec *saveSections, mutate func(*rawGraph)) {
	w := readRawGraph(t, sec.Graph)
	mutate(&w)
	sec.Graph = w.encode()
}

func editState(t testing.TB, raw *[]byte, mutate func(*rawState)) {
	w := readRawState(t, *raw)
	mutate(&w)
	*raw = w.encode()
}

// repeatOutEdge overwrites the second out-neighbour of the first node with
// two of them by its first, so that node's out-list names one edge twice.
func repeatOutEdge(w *rawGraph) {
	for v := 0; v < int(w.N); v++ {
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

// nonCanonicalStates are the saved forms of a PPR state that no encoder
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

// corruptSave decodes a healthy embedder's save, lets mutate corrupt the
// decoded parts, and re-encodes them. The result is a well-formed save,
// footer included, carrying inconsistent state — exactly what a
// hand-edited or partially overwritten save file looks like: the
// integrity layer must pass it and the structural validation must do the
// rejecting.
func corruptSave(t testing.TB, mutate func(*savedEmbedder)) []byte {
	t.Helper()
	saved, err := decodeSaved(sectionsOf(t, healthySave()), "")
	if err != nil {
		t.Fatal(err)
	}
	mutate(saved)
	out, err := saved.encode(1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// corruptSections is corruptSave one level down: mutate edits the raw
// sections, to reach forms no part's encoder emits.
func corruptSections(t testing.TB, mutate func(*saveSections)) []byte {
	t.Helper()
	sec := sectionsOf(t, healthySave())
	mutate(sec)
	return joinSave(t, &sec.saveHeader, sec)
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
	// Forms no part's encoder emits: parts left out, and the decoder
	// panics fuzzing found.
	for _, tc := range []struct {
		name    string
		mutate  func(*saveSections)
		wantSub string
	}{
		{"missing graph", func(s *saveSections) { s.Graph = nil }, "missing graph"},
		{"missing proximity matrix", func(s *saveSections) { s.M = nil }, "missing proximity"},
		{"missing tree snapshot", func(s *saveSections) { s.Tree = nil }, "missing tree"},
		{"graph offsets out of range", func(s *saveSections) {
			editGraph(t, s, func(w *rawGraph) { w.OutPtr[1] = -26 })
		}, "out-offsets"},
		{"graph negative node count", func(s *saveSections) {
			editGraph(t, s, func(w *rawGraph) { w.N = -1 })
		}, "node count -1"},
		{"graph neighbour out of range", func(s *saveSections) {
			editGraph(t, s, func(w *rawGraph) { w.InAdj[0] = w.N })
		}, "in-neighbour"},
		// Adjacency that used to load and panic at the first DeleteEdge of
		// the edge it lost, in the update stage nothing recovers.
		{"graph in-list lacks an edge", func(s *saveSections) {
			editGraph(t, s, func(w *rawGraph) {
				w.InAdj = w.InAdj[:len(w.InAdj)-1]
				for i := range w.InPtr {
					w.InPtr[i] = min(w.InPtr[i], int32(len(w.InAdj)))
				}
			})
		}, "transpose"},
		{"graph repeats an edge", func(s *saveSections) { editGraph(t, s, repeatOutEdge) }, "repeat 1 edges"},
		{"state values shorter than keys", func(s *saveSections) {
			editState(t, &s.Fwd[0], func(w *rawState) { w.PVals = w.PVals[:len(w.PVals)-1] })
		}, "keys/values"},
		// RestoreSubset range-checks a key against the graph; the decoder
		// refuses a negative one before it reaches the state's table.
		{"estimate key out of range", func(s *saveSections) {
			editState(t, &s.Fwd[0], func(w *rawState) { addAt(&w.PKeys, &w.PVals, 500, 0.1) })
		}, "estimate key 500"},
		{"residue key out of range", func(s *saveSections) {
			editState(t, &s.Rev[1], func(w *rawState) { addAt(&w.RKeys, &w.RVals, -3, 0.1) })
		}, "residue key -3"},
		{"NaN residue", func(s *saveSections) {
			editState(t, &s.Fwd[0], func(w *rawState) { addAt(&w.RKeys, &w.RVals, w.Source, math.NaN()) })
		}, "non-canonical residue value NaN"},
		// A residue the decoders accept but the auditors do not: Load audits
		// before it publishes, as Open always has.
		{"residue above the push threshold", func(s *saveSections) {
			editState(t, &s.Fwd[0], func(w *rawState) {
				addAt(&w.RKeys, &w.RVals, w.Source, 0.5)
				addAt(&w.PKeys, &w.PVals, w.Source, -0.5)
			})
		}, "invariant audit"},
	} {
		check(tc.name, corruptSections(t, tc.mutate), tc.wantSub, true)
	}
	for _, tc := range nonCanonicalStates {
		check(tc.name, corruptSections(t, func(s *saveSections) {
			editState(t, &s.Fwd[0], tc.mutate)
		}), tc.wantSub, true)
	}
	// Each part's framing: a column count that runs past the part's bytes
	// (the top byte of its first count, after the part's fixed-width
	// fields), and a byte after its last column.
	for _, tc := range []struct {
		part, codec string
		bytes       func(*saveSections) *[]byte
		count       int
	}{
		{"graph", "graph: decode", func(s *saveSections) *[]byte { return &s.Graph }, 4},
		{"PPR state", "ppr: decode state", func(s *saveSections) *[]byte { return &s.Rev[2] }, 5},
		{"proximity matrix", "sparse: decode", func(s *saveSections) *[]byte { return &s.M }, 12},
		{"tree snapshot", "core: decode snapshot", func(s *saveSections) *[]byte { return &s.Tree }, 9},
	} {
		want := tc.part + " failed to decode: " + tc.codec + ": column: "
		check(tc.part+" column past the end", corruptSections(t, func(s *saveSections) {
			b := tc.bytes(s)
			*b = slices.Clone(*b)
			(*b)[tc.count+column.CountLen-1] = 0x7f
		}), want+"count", true)
		check(tc.part+" trailing bytes", corruptSections(t, func(s *saveSections) {
			b := tc.bytes(s)
			*b = append(slices.Clone(*b), 0)
		}), want+"1 trailing bytes", true)
	}
	payload := healthySave()
	payload = append(slices.Clone(payload[:len(payload)-wire.FooterLen]), 0)
	check("bytes after the last section", append(payload, wire.Footer(payload)...), "sections do not span the payload", true)
	// Another format version is a refusal, not damage: a plain error that
	// names both versions.
	older := func(s *savedEmbedder) { s.Version = persistVersion - 1 }
	bothVersions := fmt.Sprintf("version %d, want %d", persistVersion-1, persistVersion)
	check("version mismatch", corruptSave(t, func(s *savedEmbedder) { s.Version = 99 }), "version 99", false)
	check("older version", corruptSave(t, older), bothVersions, false)
	// A save the last gob format (version 8) wrote: its gob stream opens
	// with the header's fields, so it reads as far as its version.
	check("version 8 save", mustTB(os.ReadFile("testdata/save-v8.bin")),
		fmt.Sprintf("save format version 8, want %d", persistVersion), false)
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

// retiredSelfCheckSave is a healthy save whose header's Config still
// carries the removed SelfCheck field, set.
func retiredSelfCheckSave(t testing.TB) []byte {
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
	sec := sectionsOf(t, healthySave())
	hdr := struct {
		Version int
		Config  legacyConfig
		Subset  []int32
	}{Version: sec.Version, Subset: sec.Subset}
	// Gob matches fields by name: the round trip carries every field the
	// two configs share.
	var buf bytes.Buffer
	must0tb(gob.NewEncoder(&buf).Encode(sec.Config))
	must0tb(gob.NewDecoder(&buf).Decode(&hdr.Config))
	hdr.Config.SelfCheck = true
	return joinSave(t, &hdr, sec)
}

// TestLoadIgnoresRetiredSelfCheck: a save whose Config still carries the
// removed SelfCheck field, set, loads to the same embedder and saves back
// to the bytes of a save that never had it.
func TestLoadIgnoresRetiredSelfCheck(t *testing.T) {
	legacy := retiredSelfCheckSave(t)
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
// whose header Config carries a retired field, one with an infinite root
// singular value and the three non-canonical PPR states, without their
// footers; every mutated payload is re-sealed with a valid one, since
// otherwise the CRC would reject them all and nothing behind it would run.
func FuzzLoad(f *testing.F) {
	seeds := [][]byte{healthySave(), retiredSelfCheckSave(f),
		corruptSave(f, func(s *savedEmbedder) { rootNode(s).S[0] = math.Inf(1) })}
	for _, tc := range nonCanonicalStates {
		seeds = append(seeds, corruptSections(f, func(s *saveSections) {
			editState(f, &s.Rev[1], tc.mutate)
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
