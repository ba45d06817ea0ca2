package treesvd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRetiredOptionsRejected: the knobs of the removed dynamic path and
// of the removed subset sharding still compile (benchmark/ names them)
// but every entry point that takes a Config — New, FactorizeMatrix, and
// Load of a save whose header's Config carries the value — refuses a set one
// with an error that names it. TestShardConfigErrors checks that Shards 1,
// which always meant one tree, is still accepted.
func TestRetiredOptionsRejected(t *testing.T) {
	g := buildGraph(rand.New(rand.NewSource(9)), 30, 120)
	m := NewSparseMatrix(2, 8)
	m.Set(0, 1, 1)
	for name, set := range map[string]func(*Config){
		"SVDUpdate":      func(c *Config) { c.SVDUpdate = true },
		"UpdateMaxRel":   func(c *Config) { c.UpdateMaxRel = 0.5 },
		"UpdateTailFrac": func(c *Config) { c.UpdateTailFrac = 0.25 },
		"PushAccel":      func(c *Config) { c.PushAccel = PushSOR },
		"Shards":         func(c *Config) { c.Shards = 2 },
	} {
		cfg := Config{Dim: 4}
		set(&cfg)
		_, errNew := New(g.Clone(), []int32{1, 3}, cfg)
		_, errMat := FactorizeMatrix(m, cfg)
		_, errLoad := Load(bytes.NewReader(corruptSave(t, func(s *savedEmbedder) { set(&s.Config) })))
		for entry, err := range map[string]error{"New": errNew, "FactorizeMatrix": errMat, "Load": errLoad} {
			if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "removed") {
				t.Errorf("%s with %s set: error %v, want one saying %s was removed", entry, name, err, name)
			}
		}
	}

	// A save in the sharded layout persistVersion 4 wrote — a gob stream
	// with the payloads in a per-shard slice — is refused with the plain
	// version error.
	type v4Shard struct {
		Fwd, Rev [][]byte
		M, Tree  []byte
	}
	var v4 bytes.Buffer
	must0tb(gob.NewEncoder(&v4).Encode(struct {
		Version int
		Config  Config
		Subset  []int32
		Graph   []byte
		Shards  []v4Shard
	}{Version: 4, Config: Config{Dim: 4, Shards: 1}, Subset: []int32{1, 3}, Graph: []byte{1}, Shards: []v4Shard{{M: []byte{1}}}}))
	appendFooter(&v4)
	_, err := Load(&v4)
	want := fmt.Sprintf("version 4, want %d", persistVersion)
	var corrupt *CorruptStateError
	if err == nil || !strings.Contains(err.Error(), want) || errors.As(err, &corrupt) {
		t.Errorf("Load of a version-4 save = %v, want the plain %q error", err, want)
	}
}

// TestShardConfigErrors: Config.Shards is a retired stub. Defaults no
// longer sets it; any value but 0 and 1 is refused with an error that
// names it; and 1, which like 0 always meant one tree, builds the same
// embedder as 0 bit for bit.
func TestShardConfigErrors(t *testing.T) {
	g := buildGraph(rand.New(rand.NewSource(3)), 30, 90)
	subset := []int32{1, 4, 9, 15}

	for _, shards := range []int{-2, 2, 5} {
		_, err := New(g.Clone(), subset, Config{Dim: 4, Shards: shards})
		if want := fmt.Sprintf("Shards %d", shards); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "removed") {
			t.Errorf("Shards=%d: error %v, want one naming %q and saying it was removed", shards, err, want)
		}
	}

	if d := Defaults(); d.Shards != 0 {
		t.Fatalf("Defaults().Shards = %d, want 0", d.Shards)
	}
	e0 := mustTB(New(g.Clone(), subset, Config{Dim: 4}))
	e1, err := New(g.Clone(), subset, Config{Dim: 4, Shards: 1})
	if err != nil {
		t.Fatalf("New with Shards 1: %v", err)
	}
	x0, x1 := e0.Embedding(), e1.Embedding()
	if len(x0) != len(x1) {
		t.Fatalf("Shards 1 embeds %d rows, Shards 0 embeds %d", len(x1), len(x0))
	}
	for i := range x0 {
		for j := range x0[i] {
			if x0[i][j] != x1[i][j] {
				t.Fatalf("embedding (%d,%d): Shards 1 gives %g, Shards 0 gives %g", i, j, x1[i][j], x0[i][j])
			}
		}
	}
}

// TestRetiredSyncRejected: DurableConfig.Sync is a retired stub. Create
// and Open refuse any value but SyncBatch with an error that names it,
// and accept SyncBatch, the zero value.
func TestRetiredSyncRejected(t *testing.T) {
	g := buildGraph(rand.New(rand.NewSource(9)), 30, 120)
	subset := []int32{1, 3}
	bad := DurableConfig{Config: Config{Dim: 4}, Sync: 1}
	dir := t.TempDir()
	_, errCreate := Create(dir, g.Clone(), subset, bad)
	d := mustTB(Create(dir, g.Clone(), subset, DurableConfig{Config: Config{Dim: 4}, Sync: SyncBatch}))
	must0tb(d.Close())
	_, errOpen := Open(dir, bad)
	for entry, err := range map[string]error{"Create": errCreate, "Open": errOpen} {
		if err == nil || !strings.Contains(err.Error(), "Sync 1") || !strings.Contains(err.Error(), "removed") {
			t.Errorf("%s with Sync 1: error %v, want one naming Sync 1 and saying it was removed", entry, err)
		}
	}
	d = mustTB(Open(dir, DurableConfig{Sync: SyncBatch}))
	must0tb(d.Close())
}

// retiredStubs lists every retired name the library keeps only because
// benchmark/ still compiles against it, each with a pattern for a
// spelling there that needs it. A type is needed while a value of it is
// spelled: PushAccel by PushSOR, SyncPolicy by SyncBatch.
var retiredStubs = []struct{ stub, spelling string }{
	{"treesvd.Config.Shards", `\.Shards\b`},
	{"treesvd.Config.SVDUpdate", `\.SVDUpdate\b`},
	{"treesvd.Config.UpdateMaxRel", `\.UpdateMaxRel\b`},
	{"treesvd.Config.UpdateTailFrac", `\.UpdateTailFrac\b`},
	{"treesvd.Config.PushAccel", `\.PushAccel\b`},
	{"treesvd.PushAccel", `\btreesvd\.PushSOR\b`},
	{"treesvd.PushSOR", `\btreesvd\.PushSOR\b`},
	{"treesvd.TraceBlockUpdate", `\btreesvd\.TraceBlockUpdate\b`},
	{"treesvd.Metrics.BlocksUpdated", `\.BlocksUpdated\b`},
	{"core.Config.SVDUpdate", `\bSVDUpdate\s*:`},
	{"core.Config.UpdateMaxRel", `\bUpdateMaxRel\s*:`},
	{"core.Config.UpdateTailFrac", `\bUpdateTailFrac\s*:`},
	{"ppr.Params.Accel", `\bAccel\s*:`},
	{"treesvd.DurableConfig.Sync", `\bSync\s*:`},
	{"treesvd.SyncPolicy", `\btreesvd\.SyncBatch\b`},
	{"treesvd.SyncBatch", `\btreesvd\.SyncBatch\b`},
}

// TestRetiredNamesStillNamedByBenchmark keeps the retired stubs honest:
// each must still be spelled somewhere in benchmark/*.go. Once the
// benchmark stops naming one, the stub has no reason left to exist and
// this test asks for its deletion.
func TestRetiredNamesStillNamedByBenchmark(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("benchmark", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark sources found (%v)", err)
	}
	var src strings.Builder
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	for _, r := range retiredStubs {
		if !regexp.MustCompile(r.spelling).MatchString(src.String()) {
			t.Errorf("retired stub %s: benchmark/ no longer spells %s; delete the stub", r.stub, r.spelling)
		}
	}
}
