package treesvd

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildGraph(rng, 60, 240)
	subset := []int32{2, 4, 8, 16, 32, 48}
	cfg := Config{Dim: 8, MaxNodes: 80}
	emb, err := New(g, subset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Advance through a batch so the state is non-trivial (deltas,
	// baselines, cached blocks).
	var events []Event
	for len(events) < 30 {
		u, v := int32(rng.Intn(60)), int32(rng.Intn(60))
		if u != v {
			events = append(events, Event{U: u, V: v, Type: Insert})
		}
	}
	mustTB(emb.ApplyEvents(bgt, events))

	var buf bytes.Buffer
	if err := emb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Identical embeddings immediately after load.
	a, b := emb.Embedding(), loaded.Embedding()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("embedding differs after load at (%d,%d)", i, j)
			}
		}
	}
	if got := loaded.Subset(); len(got) != len(subset) || got[0] != subset[0] {
		t.Fatal("subset not restored")
	}
	if loaded.Snapshot().NumEdges() != emb.Snapshot().NumEdges() {
		t.Fatal("graph not restored")
	}

	// Identical behavior on further updates: apply the same batch to
	// both and compare.
	var more []Event
	for len(more) < 40 {
		u, v := int32(rng.Intn(70)), int32(rng.Intn(70))
		if u != v {
			more = append(more, Event{U: u, V: v, Type: Insert})
		}
	}
	r1 := mustTB(emb.ApplyEvents(bgt, more))
	r2 := mustTB(loaded.ApplyEvents(bgt, more))
	if r1 != r2 {
		t.Fatalf("rebuild counts diverge after load: %d vs %d", r1, r2)
	}
	// The proximity refresh walks touched nodes in ascending order, so the
	// incremental Frobenius bookkeeping — and everything downstream — is
	// the same float computation on both sides.
	a, b = emb.Embedding(), loaded.Embedding()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("post-update embedding differs at (%d,%d): %g vs %g", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestSaveIsByteDeterministic: a save is a function of the embedder's
// state. Two saves of one embedder, and a save of the embedder loaded from
// the first, are the same bytes — the PPR states encode their maps in key
// order — before and after a further batch.
func TestSaveIsByteDeterministic(t *testing.T) {
	save := func(e *Embedder) []byte {
		var buf bytes.Buffer
		must0tb(e.Save(&buf))
		return buf.Bytes()
	}
	rng := rand.New(rand.NewSource(21))
	emb := mustTB(New(buildGraph(rng, 60, 240), []int32{2, 4, 8, 16, 32, 48}, Config{Dim: 8, MaxNodes: 80}))
	for round := 0; round < 2; round++ {
		var events []Event
		for len(events) < 30 {
			if u, v := int32(rng.Intn(70)), int32(rng.Intn(70)); u != v {
				events = append(events, Event{U: u, V: v, Type: Insert}, Event{U: v, V: u, Type: Delete})
			}
		}
		mustTB(emb.ApplyEvents(bgt, events))
		first := save(emb)
		if !bytes.Equal(first, save(emb)) {
			t.Fatalf("round %d: two saves of one embedder differ", round)
		}
		loaded := mustTB(Load(bytes.NewReader(first)))
		if !bytes.Equal(first, save(loaded)) {
			t.Fatalf("round %d: Save → Load → Save changed the bytes", round)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveLoadPreservesRightEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := buildGraph(rng, 40, 160)
	emb, err := New(g, []int32{1, 3, 5, 7}, Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := emb.RightEmbedding(), loaded.RightEmbedding()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("right embedding differs at (%d,%d)", i, j)
			}
		}
	}
}

// TestSaveFileConcurrentWritersOnePath runs two embedders' SaveFile
// against one path at once, 30 times: each call writes its own temp file,
// so whichever rename lands last leaves a whole save that loads.
func TestSaveFileConcurrentWritersOnePath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var embs [2]*Embedder
	for i := range embs {
		g := buildGraph(rng, 300+100*i, 1500+500*i)
		emb, err := New(g, []int32{1, 5, 9, 30, 77, 120}, Config{Dim: 8})
		if err != nil {
			t.Fatal(err)
		}
		embs[i] = emb
	}
	path := filepath.Join(t.TempDir(), "state.bin")
	for round := 0; round < 30; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(embs))
		start := make(chan struct{})
		for i, emb := range embs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = emb.SaveFile(path)
			}()
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: SaveFile %d: %v", round, i, err)
			}
		}
		if _, err := LoadFile(path); err != nil {
			t.Fatalf("round %d: LoadFile after concurrent saves: %v", round, err)
		}
	}
}
