package treesvd

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// TestApplyEventsRejectsOutOfRangeNodes is the ISSUE 3 regression for the
// MaxNodes overflow: an event referencing a node id at or beyond the
// proximity width used to grow the graph and then panic inside the sparse
// refresh, after the graph had already advanced. The whole batch must now
// be rejected with a *NodeRangeError before anything mutates.
func TestApplyEventsRejectsOutOfRangeNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := buildGraph(rng, 12, 40)
	emb, err := New(g, []int32{0, 1, 2, 3}, Config{Dim: 4, RMax: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	nodes, edges, version := g.NumNodes(), g.NumEdges(), emb.Version()

	batches := map[string][]Event{
		"beyond capacity (U)": {{U: 25, V: 0, Type: Insert}},
		"beyond capacity (V)": {{U: 0, V: 1, Type: Insert}, {U: 3, V: 12, Type: Insert}},
		"negative id":         {{U: -1, V: 0, Type: Delete}},
	}
	for name, batch := range batches {
		_, err := emb.ApplyEvents(context.Background(), batch)
		var nre *NodeRangeError
		if !errors.As(err, &nre) {
			t.Fatalf("%s: want *NodeRangeError, got %v", name, err)
		}
		if nre.MaxNodes != 12 {
			t.Errorf("%s: MaxNodes = %d, want 12", name, nre.MaxNodes)
		}
		if g.NumNodes() != nodes || g.NumEdges() != edges {
			t.Fatalf("%s: graph mutated by a rejected batch: %d nodes / %d edges, want %d / %d",
				name, g.NumNodes(), g.NumEdges(), nodes, edges)
		}
		if emb.Version() != version {
			t.Errorf("%s: snapshot republished after a rejected batch", name)
		}
	}
	if got := batches["beyond capacity (V)"]; got != nil {
		_, err := emb.ApplyEvents(context.Background(), got)
		var nre *NodeRangeError
		if errors.As(err, &nre) && (nre.Index != 1 || nre.Node != 12) {
			t.Errorf("offending event: Index=%d Node=%d, want Index=1 Node=12", nre.Index, nre.Node)
		}
	}

	// The rebuild path (batch past RebuildThreshold) must validate too.
	big := make([]Event, 0, 1100)
	for i := 0; i < 1099; i++ {
		big = append(big, Event{U: int32(rng.Intn(12)), V: int32(rng.Intn(12)), Type: Insert})
	}
	big = append(big, Event{U: 0, V: 40, Type: Insert})
	if _, err := emb.ApplyEvents(context.Background(), big); err == nil {
		t.Fatal("rebuild path accepted an out-of-range event")
	}
	if g.NumNodes() != nodes || g.NumEdges() != edges {
		t.Fatalf("rebuild path mutated the graph before validation: %d nodes / %d edges", g.NumNodes(), g.NumEdges())
	}

	// The embedder must still be fully usable after rejected batches.
	if _, err := emb.ApplyEvents(context.Background(), []Event{{U: 5, V: 6, Type: Insert}}); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
	if emb.Version() == version {
		t.Error("valid batch did not publish a new snapshot")
	}

	// With MaxNodes headroom, growth events inside the capacity are fine.
	g2 := buildGraph(rand.New(rand.NewSource(3)), 10, 30)
	emb2, err := New(g2, []int32{0, 1}, Config{Dim: 4, RMax: 1e-3, MaxNodes: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := emb2.ApplyEvents(context.Background(), []Event{{U: 0, V: 19, Type: Insert}}); err != nil {
		t.Fatalf("growth within MaxNodes rejected: %v", err)
	}
	if _, err := emb2.ApplyEvents(context.Background(), []Event{{U: 0, V: 20, Type: Insert}}); err == nil {
		t.Fatal("node id == MaxNodes accepted")
	}
}

// TestRecommendNoGhostNodes is the ISSUE 3 regression for ghost
// recommendations: with MaxNodes headroom the right embedding has rows
// for node ids the graph has not reached yet, and Recommend used to let
// their zero scores fill the top-k.
func TestRecommendNoGhostNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildGraph(rng, 10, 30)
	emb, err := New(g, []int32{0, 1, 2}, Config{Dim: 4, RMax: 1e-3, MaxNodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := emb.Snapshot().NumNodes(); got != 10 {
		t.Fatalf("Snapshot.NumNodes() = %d, want 10", got)
	}
	// Ask for more candidates than real nodes: the result must stay within
	// the live id range and never pad with reserved ids.
	recs, err := emb.Recommend(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	if len(recs) > 9 {
		t.Fatalf("got %d recommendations from a 10-node graph (source excluded)", len(recs))
	}
	for _, r := range recs {
		if r.Node >= 10 {
			t.Errorf("ghost node %d (graph has 10 nodes) recommended with score %g", r.Node, r.Score)
		}
	}

	// After growth, the new node becomes a legitimate candidate on the new
	// snapshot — and the old pinned snapshot still excludes it.
	old := emb.Snapshot()
	if _, err := emb.ApplyEvents(context.Background(), []Event{{U: 3, V: 10, Type: Insert}, {U: 10, V: 4, Type: Insert}}); err != nil {
		t.Fatal(err)
	}
	if got := emb.Snapshot().NumNodes(); got != 11 {
		t.Fatalf("after growth NumNodes() = %d, want 11", got)
	}
	recs, err = emb.Recommend(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Node >= 11 {
			t.Errorf("ghost node %d recommended after growth to 11 nodes", r.Node)
		}
	}
	oldRecs, err := old.Recommend(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range oldRecs {
		if r.Node >= 10 {
			t.Errorf("pinned snapshot recommended node %d born after its version", r.Node)
		}
	}
}

// TestRecommendKContract is the ISSUE 8 regression for the top-k edge
// cases: k <= 0 must be rejected with a *InvalidKError (so a server can
// map it to HTTP 400 deterministically), and a k larger than the
// candidate set must truncate to every available candidate instead of
// erroring or padding.
func TestRecommendKContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := buildGraph(rng, 12, 48)
	emb, err := New(g, []int32{0, 1}, Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, -1, -100} {
		_, err := emb.Recommend(0, k)
		var ike *InvalidKError
		if !errors.As(err, &ike) {
			t.Fatalf("k=%d: want *InvalidKError, got %v", k, err)
		}
		if ike.K != k {
			t.Errorf("k=%d: error carries K=%d", k, ike.K)
		}
		// The snapshot path must agree with the facade path.
		if _, err := emb.Snapshot().Recommend(0, k); !errors.As(err, &ike) {
			t.Fatalf("snapshot k=%d: want *InvalidKError, got %v", k, err)
		}
	}
	// Oversized k: 12 nodes minus the source and its out-neighbors can
	// never reach 1000; the result is simply every candidate, ranked.
	recs, err := emb.Recommend(0, 1000)
	if err != nil {
		t.Fatalf("oversized k must truncate, got error %v", err)
	}
	if len(recs) == 0 || len(recs) > 11 {
		t.Fatalf("oversized k returned %d candidates, want 1..11", len(recs))
	}
	exact, err := emb.Recommend(0, len(recs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if exact[i] != recs[i] {
			t.Fatal("truncated oversized-k result diverged from the exact-k result")
		}
	}
}

// TestRecommendNotInSubsetTyped is the ISSUE 8 regression for the untyped
// not-in-subset error: a source outside the embedded subset must surface
// as a *NotInSubsetError so the serving layer can distinguish 404 from
// 500.
func TestRecommendNotInSubsetTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := buildGraph(rng, 12, 48)
	emb, err := New(g, []int32{0, 1, 2}, Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = emb.Recommend(7, 5)
	var nis *NotInSubsetError
	if !errors.As(err, &nis) {
		t.Fatalf("want *NotInSubsetError, got %v", err)
	}
	if nis.Node != 7 || nis.Subset != 3 {
		t.Errorf("error carries Node=%d Subset=%d, want 7 and 3", nis.Node, nis.Subset)
	}
}
