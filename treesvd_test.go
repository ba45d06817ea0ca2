package treesvd

import (
	"math/rand"
	"testing"
)

func buildGraph(rng *rand.Rand, n, m int) *Graph {
	g := NewGraphN(n)
	for v := int32(0); int(v) < n; v++ {
		for {
			u := int32(rng.Intn(n))
			if u != v && g.InsertEdge(v, u) {
				break
			}
		}
	}
	for g.NumEdges() < m {
		g.InsertEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return g
}

func TestNewAndEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := buildGraph(rng, 60, 240)
	subset := []int32{3, 7, 11, 20, 42, 13, 17, 25, 30, 31, 44, 51}
	emb, err := New(g, subset, Config{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	x := emb.Embedding()
	if len(x) != len(subset) || len(x[0]) != 8 {
		t.Fatalf("embedding shape %dx%d, want %dx8", len(x), len(x[0]), len(subset))
	}
	y := emb.RightEmbedding()
	if len(y) != 60 || len(y[0]) != 8 {
		t.Fatalf("right embedding shape %dx%d, want 60x8", len(y), len(y[0]))
	}
	got := emb.Subset()
	for i, v := range subset {
		if got[i] != v {
			t.Fatal("Subset() order mismatch")
		}
	}
}

func TestApplyEventsUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := buildGraph(rng, 50, 200)
	emb, err := New(g, []int32{1, 2, 3, 4}, Config{Dim: 8, Delta: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	before := emb.Embedding()
	var events []Event
	for len(events) < 60 {
		u, v := int32(rng.Intn(50)), int32(rng.Intn(50))
		if u != v {
			events = append(events, Event{U: u, V: v, Type: Insert})
		}
	}
	rebuilt := mustTB(emb.ApplyEvents(bgt, events))
	if rebuilt == 0 {
		t.Fatal("δ=0 with 60 insertions rebuilt nothing")
	}
	after := emb.Embedding()
	same := true
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("embedding unchanged after updates")
	}
	st := emb.LastStats()
	if st.Level1Rebuilt != rebuilt {
		t.Fatalf("stats mismatch: %d vs %d", st.Level1Rebuilt, rebuilt)
	}
}

func TestRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := buildGraph(rng, 40, 160)
	emb, err := New(g, []int32{5, 6}, Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	must0tb(emb.Rebuild(bgt))
	if x := emb.Embedding(); len(x) != 2 {
		t.Fatal("rebuild broke embedding")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := buildGraph(rng, 10, 40)
	if _, err := New(g, nil, Defaults()); err == nil {
		t.Fatal("empty subset accepted")
	}
	if _, err := New(g, []int32{99}, Defaults()); err == nil {
		t.Fatal("out-of-range subset accepted")
	}
	g2 := NewGraphN(3)
	g2.InsertEdge(0, 1)
	g2.InsertEdge(1, 0)
	if _, err := New(g2, []int32{2}, Defaults()); err == nil {
		t.Fatal("dangling subset node accepted")
	}
	if _, err := New(g, []int32{0}, Config{Dim: 4, Alpha: 2}); err == nil {
		t.Fatal("bad alpha accepted")
	}
}

func TestConfigDefaultsFill(t *testing.T) {
	c := mustTB(Config{}.withDefaults())
	d := Defaults()
	if c != d {
		t.Fatalf("withDefaults() = %+v, want %+v", c, d)
	}
	// Partial overrides survive.
	c = mustTB(Config{Dim: 64}.withDefaults())
	if c.Dim != 64 || c.Branch != 8 {
		t.Fatal("partial defaults wrong")
	}
}

func TestConfigRejectsNegatives(t *testing.T) {
	for _, bad := range []Config{
		{Dim: -1},
		{Alpha: -0.1},
		{RMax: -1e-4},
		{Delta: -0.5},
	} {
		if _, err := bad.withDefaults(); err == nil {
			t.Fatalf("withDefaults accepted negative knob %+v", bad)
		}
	}
	// New surfaces the same rejection.
	g := NewGraphN(3)
	g.InsertEdge(0, 1)
	g.InsertEdge(1, 0)
	if _, err := New(g, []int32{0}, Config{Dim: -8}); err == nil {
		t.Fatal("New accepted negative Dim")
	}
}

func TestMaxNodesGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := buildGraph(rng, 20, 80)
	emb, err := New(g, []int32{0, 1}, Config{Dim: 4, MaxNodes: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Insert edges touching nodes beyond the initial graph size.
	mustTB(emb.ApplyEvents(bgt, []Event{{U: 0, V: 35, Type: Insert}, {U: 35, V: 1, Type: Insert}}))
	y := emb.RightEmbedding()
	if len(y) != 40 {
		t.Fatalf("right embedding rows %d, want MaxNodes=40", len(y))
	}
}

func TestRecommend(t *testing.T) {
	// Two dense communities; recommendations for a community-0 member
	// should be dominated by community-0 nodes it doesn't link to yet.
	rng := rand.New(rand.NewSource(6))
	g := NewGraphN(80)
	comm := func(v int32) int32 { return v / 40 }
	for v := int32(0); v < 80; v++ {
		for g.OutDeg(v) < 6 {
			var u int32
			if rng.Float64() < 0.92 {
				u = comm(v)*40 + int32(rng.Intn(40))
			} else {
				u = int32(rng.Intn(80))
			}
			if u != v {
				g.InsertEdge(v, u)
			}
		}
	}
	emb, err := New(g, []int32{3, 7, 11, 50, 54, 58}, Config{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := emb.Recommend(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("got %d recommendations, want 10", len(recs))
	}
	sameComm := 0
	for i, r := range recs {
		if r.Node == 3 || g.HasEdge(3, r.Node) {
			t.Fatalf("recommendation %d is self or an existing edge", r.Node)
		}
		if i > 0 && recs[i-1].Score < r.Score {
			t.Fatal("recommendations not sorted by score")
		}
		if comm(r.Node) == 0 {
			sameComm++
		}
	}
	if sameComm < 7 {
		t.Fatalf("only %d/10 recommendations in the right community", sameComm)
	}
	if _, err := emb.Recommend(99, 5); err == nil {
		t.Fatal("non-subset node accepted")
	}
}

func TestRecommendKLargerThanGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildGraph(rng, 12, 48)
	emb, err := New(g, []int32{0, 1}, Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := emb.Recommend(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > 12 {
		t.Fatalf("more recommendations (%d) than nodes", len(recs))
	}
}

func TestApplyEventsLargeBatchRebuildFallback(t *testing.T) {
	// A batch larger than 1/r_max must take the Theorem 3.7 rebuild path
	// and still leave a consistent, updated embedding.
	rng := rand.New(rand.NewSource(8))
	g := buildGraph(rng, 50, 200)
	cfg := Config{Dim: 4, RMax: 1e-2} // 1/r_max = 100
	emb, err := New(g, []int32{1, 2, 3, 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := emb.Embedding()
	var events []Event
	for len(events) < 300 { // ≫ 1/r_max
		u, v := int32(rng.Intn(50)), int32(rng.Intn(50))
		if u != v {
			events = append(events, Event{U: u, V: v, Type: Insert})
		}
	}
	mustTB(emb.ApplyEvents(bgt, events))
	after := emb.Embedding()
	changed := false
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("embedding unchanged after 300-event rebuild-path batch")
	}
	// Further small updates still work on the rebuilt state.
	mustTB(emb.ApplyEvents(bgt, []Event{{U: 1, V: 49, Type: Insert}}))
}
