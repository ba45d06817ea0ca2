package ppr

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/tree-svd/treesvd/internal/dataset"
)

// TestStateTableBounds pins the table's memory bounds on a deletion-heavy
// stream, where estimates and residues fall back to zero most often: after
// every batch each state's capacity is at most 2·stored + 16, and a rehash
// keeps the non-zero content and no all-zero slot.
func TestStateTableBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	subset := make([]int32, 12)
	for i, v := range rng.Perm(400)[:len(subset)] {
		subset[i] = int32(v)
	}
	slices.Sort(subset)
	g, batches := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: 400, MaxNodes: 440, Degree: 4, Batches: 80, BatchSize: 16,
		SelfLoopFrac: 0.05, DeleteFrac: 0.6, DupFrac: 0.05, MissFrac: 0.05, GrowFrac: 0.05,
		BigBatch: -1, Protect: subset, Seed: 5,
	})
	sp := mustPPR(NewSubset(g, subset, Params{Alpha: 0.15, RMax: 1e-3}))
	caps := map[*State]int{}
	zeroSlots, rehashes := 0, 0
	for bi, batch := range batches {
		must0t(sp.ApplyEvents(bgt, batch))
		for _, st := range states(sp) {
			c, n := len(st.tab.keys), st.tab.n
			if c > 2*n+16 {
				t.Fatalf("batch %d: source %d %v: capacity %d for %d stored entries", bi, st.Source, st.Dir, c, n)
			}
			if old, ok := caps[st]; ok && old != c {
				rehashes++
			}
			caps[st] = c
			re := table{keys: slices.Clone(st.tab.keys), vals: slices.Clone(st.tab.vals), n: n}
			re.rehash(0)
			zeroSlots += n - re.n
			for i, k := range re.keys {
				if k != emptyKey && re.vals[i] == (entry{}) {
					t.Fatalf("batch %d: source %d %v: rehash kept the all-zero slot of node %d", bi, st.Source, st.Dir, k)
				}
			}
			wantP, wantR := content(st)
			gotP, gotR := content(&State{tab: re})
			if !maps.Equal(gotP, wantP) || !maps.Equal(gotR, wantR) {
				t.Fatalf("batch %d: source %d %v: rehash changed the content", bi, st.Source, st.Dir)
			}
		}
	}
	if zeroSlots == 0 || rehashes == 0 {
		t.Fatalf("%d all-zero slots and %d rehashes seen: the stream did not exercise the table", zeroSlots, rehashes)
	}
}
