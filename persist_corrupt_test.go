package treesvd

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
	"github.com/tree-svd/treesvd/internal/wal"
)

// appendFooter seals buf's gob payload with the integrity footer.
func appendFooter(buf *bytes.Buffer) {
	var footer [footerLen]byte
	copy(footer[:4], persistMagic)
	binary.LittleEndian.PutUint32(footer[4:], crc32.Checksum(buf.Bytes(), persistCRC))
	buf.Write(footer[:])
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
	Shards  []struct {
		Fwd, Rev []rawGob
		M        *sparse.DynRow
		Tree     *core.TreeSnapshot
	}
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
func healthySave(shards int) []byte {
	rng := rand.New(rand.NewSource(9))
	g := buildGraph(rng, 30, 120)
	emb := mustTB(New(g, []int32{1, 3, 5, 7}, Config{Dim: 4, MaxNodes: 40, Shards: shards}))
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
	if err := gob.NewDecoder(bytes.NewReader(healthySave(1))).Decode(&saved); err != nil {
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
		{"missing proximity matrix", func(s *savedEmbedder) { s.Shards[0].M = nil }, "missing proximity"},
		{"missing tree snapshot", func(s *savedEmbedder) { s.Shards[0].Tree = nil }, "missing tree"},
		{"empty subset", func(s *savedEmbedder) { s.Subset = nil }, "empty subset"},
		{"forward state count mismatch", func(s *savedEmbedder) { s.Shards[0].Fwd = s.Shards[0].Fwd[:2] }, "states for a subset"},
		{"state source mismatch", func(s *savedEmbedder) {
			f := s.Shards[0].Fwd
			f[0], f[1] = f[1], f[0]
		}, "source"},
		{"state direction mismatch", func(s *savedEmbedder) { s.Shards[0].Rev[0] = s.Shards[0].Fwd[0] }, "direction"},
		{"estimate key out of range", func(s *savedEmbedder) { s.Shards[0].Fwd[0].P[500] = 0.1 }, "estimate key 500"},
		{"residue key out of range", func(s *savedEmbedder) { s.Shards[0].Rev[1].R[-3] = 0.1 }, "residue key -3"},
		{"tree block count mismatch", func(s *savedEmbedder) {
			tr := s.Shards[0].Tree
			tr.Level1US = tr.Level1US[:1]
			tr.Level1Tail = tr.Level1Tail[:1]
		}, "level-1 blocks"},
		{"tail/cache length mismatch", func(s *savedEmbedder) {
			s.Shards[0].Tree.Level1Tail = s.Shards[0].Tree.Level1Tail[:1]
		}, "tail energies"},
		{"built without root", func(s *savedEmbedder) { s.Shards[0].Tree.RootU = nil }, "without a root"},
		{"root rank mismatch", func(s *savedEmbedder) { s.Shards[0].Tree.RootS = s.Shards[0].Tree.RootS[:1] }, "singular values"},
		{"shard count mismatch", func(s *savedEmbedder) { s.Config.Shards = 2 }, "1 shard payloads for a 2-shard"},
		{"no shard payloads", func(s *savedEmbedder) { s.Shards = nil }, "0 shard payloads"},
		{"NaN residue", func(s *savedEmbedder) {
			st := s.Shards[0].Fwd[0]
			st.R[st.Source] = math.NaN()
		}, "non-canonical residue value NaN"},
		// A residue the decoders accept but the auditors do not: Load audits
		// before it publishes, as Open always has.
		{"residue above the push threshold", func(s *savedEmbedder) {
			st := s.Shards[0].Fwd[0]
			st.R[st.Source] += 0.5
			st.P[st.Source] -= 0.5
		}, "invariant audit"},
		// Cached factors with the right shapes and a non-finite entry.
		{"NaN in a level-1 cache", func(s *savedEmbedder) { s.Shards[0].Tree.Level1US[0].Data[0] = math.NaN() }, "non-finite"},
		{"Inf in an upper cache", func(s *savedEmbedder) { s.Shards[0].Tree.Upper[0][0].Data[0] = math.Inf(1) }, "non-finite"},
		{"NaN in the root factor", func(s *savedEmbedder) { s.Shards[0].Tree.RootU.Data[1] = math.NaN() }, "non-finite"},
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
		{"state values shorter than keys", func(s *rawSaved) {
			var w rawState
			s.Shards[0].Fwd[0].edit(&w, func() { w.PVals = w.PVals[:len(w.PVals)-1] })
		}, "keys/values"},
	} {
		check(tc.name, corruptSave(t, tc.mutate), tc.wantSub, true)
	}
	for _, tc := range nonCanonicalStates {
		check(tc.name, corruptSave(t, func(s *rawSaved) {
			var w rawState
			s.Shards[0].Fwd[0].edit(&w, func() { tc.mutate(&w) })
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

// legacyTreeSave is a healthy 1-shard save whose tree snapshot is encoded
// from a struct that still has the four per-block factor fields the
// removed update path persisted, populated — the wire form of a save
// written before their removal.
func legacyTreeSave(t testing.TB) []byte {
	type legacyTree struct {
		Level1US         []*linalg.Dense
		Level1Tail       []float64
		Level1Seq        []int64
		Level1U, Level1V []*linalg.Dense
		Level1S          [][]float64
		Level1UpdErr     []float64
		Upper            [][]*linalg.Dense
		RootU            *linalg.Dense
		RootS            []float64
		RootV            *linalg.Dense
		Seq              int64
		Built            bool
	}
	type legacySaved struct {
		Version int
		Config  Config
		Subset  []int32
		Graph   rawGob
		Shards  []struct {
			Fwd, Rev []rawGob
			M        *sparse.DynRow
			Tree     *legacyTree
		}
	}
	return corruptSave(t, func(s *legacySaved) {
		tr := s.Shards[0].Tree
		b := len(tr.Level1US)
		tr.Level1U, tr.Level1V = tr.Level1US, tr.Level1US
		tr.Level1S, tr.Level1UpdErr = make([][]float64, b), make([]float64, b)
		for j := range tr.Level1S {
			tr.Level1S[j], tr.Level1UpdErr[j] = []float64{2, 1}, 0.5
		}
	})
}

// TestLoadIgnoresRetiredTreeFields: gob drops the fields the snapshot no
// longer declares, so such a save loads to the same embedder as one
// without them and persistVersion did not have to move.
func TestLoadIgnoresRetiredTreeFields(t *testing.T) {
	legacy := legacyTreeSave(t)
	if plain := healthySave(1); len(legacy) <= len(plain) {
		t.Fatalf("legacy save is %d bytes, plain %d: the retired fields were not encoded", len(legacy), len(plain))
	}
	got := mustTB(Load(bytes.NewReader(legacy)))
	want := mustTB(Load(bytes.NewReader(healthySave(1))))
	if !reflect.DeepEqual(got.Embedding(), want.Embedding()) {
		t.Fatal("embedding differs from the save without the retired fields")
	}
	if err := got.Audit(); err != nil {
		t.Fatal(err)
	}
}

// FuzzLoad is the decoder property over the one save format: for any
// payload whose checksum verifies, Load returns an error or an embedder
// whose Audit is clean and that serves a read — one Recommend and the
// whole Embedding, which on a sharded save runs the root merge over every
// cached factor — never a panic. The seeds are a 1-shard and a 2-shard
// save, one carrying the retired tree-snapshot fields and the three
// non-canonical PPR states, without their footers;
// every mutated payload is re-sealed with a valid one, since otherwise
// the CRC would reject them all and nothing behind it would run.
func FuzzLoad(f *testing.F) {
	seeds := [][]byte{healthySave(1), healthySave(2), legacyTreeSave(f)}
	for _, tc := range nonCanonicalStates {
		seeds = append(seeds, corruptSave(f, func(s *rawSaved) {
			var w rawState
			s.Shards[0].Rev[1].edit(&w, func() { tc.mutate(&w) })
		}))
	}
	for _, save := range seeds {
		f.Add(save[:len(save)-footerLen])
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
