package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertDelete(t *testing.T) {
	g := New(3)
	if !g.InsertEdge(0, 1) {
		t.Fatal("insert failed")
	}
	if g.InsertEdge(0, 1) {
		t.Fatal("duplicate insert accepted")
	}
	if g.NumEdges() != 1 || g.OutDeg(0) != 1 || g.InDeg(1) != 1 {
		t.Fatal("degree bookkeeping wrong after insert")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong (directedness)")
	}
	if !g.DeleteEdge(0, 1) {
		t.Fatal("delete failed")
	}
	if g.DeleteEdge(0, 1) {
		t.Fatal("double delete accepted")
	}
	if g.NumEdges() != 0 || g.OutDeg(0) != 0 || g.InDeg(1) != 0 {
		t.Fatal("degree bookkeeping wrong after delete")
	}
}

func TestEnsureNodeGrowth(t *testing.T) {
	g := New(0)
	g.InsertEdge(5, 2)
	if g.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", g.NumNodes())
	}
}

func TestSelfLoop(t *testing.T) {
	g := New(2)
	if !g.InsertEdge(1, 1) {
		t.Fatal("self loop rejected")
	}
	if g.OutDeg(1) != 1 || g.InDeg(1) != 1 {
		t.Fatal("self loop degrees wrong")
	}
}

func TestInOutConsistency(t *testing.T) {
	// Property: after random churn, in-adjacency is exactly the transpose
	// of out-adjacency and both match the edge set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		type pair struct{ u, v int32 }
		live := map[pair]bool{}
		for step := 0; step < 300; step++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if rng.Float64() < 0.7 {
				if g.InsertEdge(u, v) != !live[pair{u, v}] {
					return false
				}
				live[pair{u, v}] = true
			} else {
				if g.DeleteEdge(u, v) != live[pair{u, v}] {
					return false
				}
				delete(live, pair{u, v})
			}
		}
		if g.NumEdges() != len(live) {
			return false
		}
		outCount := 0
		for u := int32(0); int(u) < n; u++ {
			for _, v := range g.OutNeighbors(u) {
				if !live[pair{u, v}] {
					return false
				}
				outCount++
			}
			for _, w := range g.Neighbors(u, Reverse) {
				if !live[pair{w, u}] {
					return false
				}
			}
		}
		return outCount == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectionAccessors(t *testing.T) {
	g := New(3)
	g.InsertEdge(0, 1)
	g.InsertEdge(2, 1)
	if got := g.Neighbors(0, Forward); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Forward neighbors of 0 = %v", got)
	}
	if got := g.Neighbors(1, Reverse); len(got) != 2 {
		t.Fatalf("Reverse neighbors of 1 = %v", got)
	}
	if g.Degree(1, Reverse) != 2 || g.Degree(1, Forward) != 0 {
		t.Fatal("Degree accessor wrong")
	}
}

func TestClone(t *testing.T) {
	g := New(4)
	g.InsertEdge(0, 1)
	g.InsertEdge(1, 2)
	c := g.Clone()
	c.DeleteEdge(0, 1)
	c.InsertEdge(3, 0)
	if !g.HasEdge(0, 1) || g.HasEdge(3, 0) {
		t.Fatal("clone not independent")
	}
	if g.NumEdges() != 2 || c.NumEdges() != 2 {
		t.Fatal("clone edge counts wrong")
	}
}

func TestApplyEvents(t *testing.T) {
	g := New(3)
	n := g.ApplyAll([]Event{
		{U: 0, V: 1, Type: Insert},
		{U: 0, V: 1, Type: Insert}, // duplicate: no-op
		{U: 1, V: 2, Type: Insert},
		{U: 0, V: 1, Type: Delete},
	})
	if n != 3 {
		t.Fatalf("effective events = %d, want 3", n)
	}
	if g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("event application wrong")
	}
}

func TestStreamSnapshots(t *testing.T) {
	s := &Stream{
		Events: []Event{
			{U: 0, V: 1, Type: Insert},
			{U: 1, V: 2, Type: Insert},
			{U: 0, V: 1, Type: Delete},
		},
		Ends:     []int{2, 3},
		NumNodes: 3,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	g1 := s.BuildSnapshot(1)
	if g1.NumEdges() != 2 {
		t.Fatalf("snapshot 1 edges = %d, want 2", g1.NumEdges())
	}
	g2 := s.BuildSnapshot(2)
	if g2.NumEdges() != 1 || g2.HasEdge(0, 1) {
		t.Fatal("snapshot 2 wrong")
	}
	d2 := s.SnapshotEvents(2)
	if len(d2) != 1 || d2[0].Type != Delete {
		t.Fatalf("Δ² = %v", d2)
	}
}

func TestStreamValidateRejectsBadEnds(t *testing.T) {
	s := &Stream{Events: make([]Event, 2), Ends: []int{2, 1}, NumNodes: 1}
	if s.Validate() == nil {
		t.Fatal("decreasing Ends accepted")
	}
	s = &Stream{Events: make([]Event, 1), Ends: []int{5}, NumNodes: 1}
	if s.Validate() == nil {
		t.Fatal("Ends beyond events accepted")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := &Stream{NumNodes: 50}
	for i := 0; i < 200; i++ {
		typ := Insert
		if rng.Float64() < 0.2 {
			typ = Delete
		}
		s.Events = append(s.Events, Event{U: int32(rng.Intn(50)), V: int32(rng.Intn(50)), Type: typ})
	}
	s.Ends = []int{50, 120, 200}
	var buf bytes.Buffer
	if err := s.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes != s.NumNodes || len(got.Events) != len(s.Events) || len(got.Ends) != len(s.Ends) {
		t.Fatal("round trip shape mismatch")
	}
	for i := range s.Events {
		if got.Events[i] != s.Events[i] {
			t.Fatalf("event %d mismatch: %v vs %v", i, got.Events[i], s.Events[i])
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"0 1 *\n",
		"0 one +\n",
		"0 1\n",
	} {
		if _, err := ReadEvents(bytes.NewBufferString("# nodes 5 snapshots 0\n" + bad)); err == nil {
			t.Fatalf("accepted garbage %q", bad)
		}
	}
}

func TestStreamAccessorsEdgeCases(t *testing.T) {
	s := &Stream{
		Events:   []Event{{U: 0, V: 1, Type: Insert}},
		Ends:     []int{1},
		NumNodes: 2,
	}
	if s.NumSnapshots() != 1 {
		t.Fatalf("NumSnapshots = %d", s.NumSnapshots())
	}
	// BuildSnapshot(0) is the empty graph G⁰ of Definition 2.1.
	if g := s.BuildSnapshot(0); g.NumEdges() != 0 {
		t.Fatal("snapshot 0 not empty")
	}
	// Out-of-range snapshot index must panic, not silently truncate.
	defer func() {
		if recover() == nil {
			t.Fatal("SnapshotEvents(2) did not panic")
		}
	}()
	s.SnapshotEvents(2)
}

func TestInsertEdgeRejectsNegative(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("negative node id accepted")
		}
	}()
	g.InsertEdge(-1, 0)
}

func TestValidateRejectsOutOfRangeEvent(t *testing.T) {
	s := &Stream{Events: []Event{{U: 5, V: 0, Type: Insert}}, Ends: []int{1}, NumNodes: 3}
	if s.Validate() == nil {
		t.Fatal("event beyond NumNodes accepted")
	}
	s2 := &Stream{Events: []Event{{U: -1, V: 0, Type: Insert}}, Ends: []int{1}, NumNodes: 3}
	if s2.Validate() == nil {
		t.Fatal("negative node id in event accepted")
	}
}

func TestReadEventsBadHeaderAndEnd(t *testing.T) {
	if _, err := ReadEvents(bytes.NewBufferString("# nodes x snapshots y\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := ReadEvents(bytes.NewBufferString("# nodes 3 snapshots 1\nend notanumber\n")); err == nil {
		t.Fatal("bad end accepted")
	}
}
