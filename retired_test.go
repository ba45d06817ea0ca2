package treesvd

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestRetiredOptionsRejected: the four knobs of the removed dynamic path
// still compile (benchmark/ names them) but every entry point that takes
// a Config — New, FactorizeMatrix, and Load of a save whose gob Config
// carries the value — refuses a non-zero one with an error that names it.
func TestRetiredOptionsRejected(t *testing.T) {
	g := buildGraph(rand.New(rand.NewSource(9)), 30, 120)
	m := NewSparseMatrix(2, 8)
	m.Set(0, 1, 1)
	for name, set := range map[string]func(*Config){
		"SVDUpdate":      func(c *Config) { c.SVDUpdate = true },
		"UpdateMaxRel":   func(c *Config) { c.UpdateMaxRel = 0.5 },
		"UpdateTailFrac": func(c *Config) { c.UpdateTailFrac = 0.25 },
		"PushAccel":      func(c *Config) { c.PushAccel = PushSOR },
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
}
