package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"github.com/tree-svd/treesvd/internal/graph"
)

func churnProfile() ChurnProfile {
	return ChurnProfile{
		Nodes: 40, MaxNodes: 50, Degree: 3,
		Batches: 5, BatchSize: 20,
		SelfLoopFrac: 0.2, DeleteFrac: 0.2, DupFrac: 0.1, MissFrac: 0.1, GrowFrac: 0.1,
		BigBatch: 2, BigBatchSize: 60,
		Protect: []int32{0, 7},
		Seed:    3,
	}
}

func TestChurnDeterministic(t *testing.T) {
	g1, b1 := GenerateChurn(churnProfile())
	g2, b2 := GenerateChurn(churnProfile())
	if g1.NumEdges() != g2.NumEdges() || g1.NumNodes() != g2.NumNodes() {
		t.Fatalf("initial graphs differ: %d/%d edges, %d/%d nodes",
			g1.NumEdges(), g2.NumEdges(), g1.NumNodes(), g2.NumNodes())
	}
	if len(b1) != len(b2) {
		t.Fatalf("batch counts differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if len(b1[i]) != len(b2[i]) {
			t.Fatalf("batch %d sizes differ: %d vs %d", i, len(b1[i]), len(b2[i]))
		}
		for k := range b1[i] {
			if b1[i][k] != b2[i][k] {
				t.Fatalf("batch %d event %d differs: %+v vs %+v", i, k, b1[i][k], b2[i][k])
			}
		}
	}
}

// TestChurnStreamShape replays the stream over the initial graph and
// verifies the generator's promises: every event is well-formed and
// applicable, the big batch is inflated, protected nodes never lose their
// last out-edge, growth stays within MaxNodes, and the stream actually
// contains the edge cases it exists to produce — self-loop events
// including sink transitions, genuine duplicate-insert and
// missing-delete no-ops.
func TestChurnStreamShape(t *testing.T) {
	p := churnProfile()
	g, batches := GenerateChurn(p)
	if len(batches) != p.Batches {
		t.Fatalf("%d batches, want %d", len(batches), p.Batches)
	}
	var selfLoops, sinkTransitions, dupNoOps, missNoOps, growth int
	for i, batch := range batches {
		want := p.BatchSize
		if i == p.BigBatch {
			want = p.BigBatchSize
		}
		if len(batch) != want {
			t.Fatalf("batch %d has %d events, want %d", i, len(batch), want)
		}
		for _, ev := range batch {
			if ev.U < 0 || ev.V < 0 || int(ev.U) >= p.MaxNodes || int(ev.V) >= p.MaxNodes {
				t.Fatalf("batch %d: event %+v outside MaxNodes %d", i, ev, p.MaxNodes)
			}
			if ev.U == ev.V {
				selfLoops++
				if ev.Type == graph.Insert && g.OutDeg(ev.U) == 0 {
					sinkTransitions++
				}
			}
			switch ev.Type {
			case graph.Insert:
				if g.HasEdge(ev.U, ev.V) {
					dupNoOps++
				}
				if int(ev.V) >= g.NumNodes() {
					growth++
				}
			case graph.Delete:
				if !g.HasEdge(ev.U, ev.V) {
					missNoOps++
				}
			}
			g.Apply(ev)
			for _, v := range p.Protect {
				if g.OutDeg(v) == 0 {
					t.Fatalf("batch %d: protected node %d left dangling by %+v", i, v, ev)
				}
			}
		}
	}
	if g.NumNodes() > p.MaxNodes {
		t.Fatalf("grew to %d nodes, cap %d", g.NumNodes(), p.MaxNodes)
	}
	if selfLoops == 0 || sinkTransitions == 0 || dupNoOps == 0 || missNoOps == 0 || growth == 0 {
		t.Fatalf("stream missing edge cases: %d self-loops (%d sink transitions), %d dup no-ops, %d miss no-ops, %d growth",
			selfLoops, sinkTransitions, dupNoOps, missNoOps, growth)
	}
}

// streamFingerprint is FNV-1a over a generated stream: the initial graph's
// adjacency lists in node order, then every batch's length and events.
func streamFingerprint(g *graph.Graph, batches [][]graph.Event) uint64 {
	h := fnv.New64a()
	put := func(x int32) { h.Write(binary.LittleEndian.AppendUint32(nil, uint32(x))) }
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		put(int32(g.OutDeg(u)))
		for _, v := range g.OutNeighbors(u) {
			put(v)
		}
	}
	for _, batch := range batches {
		put(int32(len(batch)))
		for _, ev := range batch {
			put(ev.U)
			put(ev.V)
			put(int32(ev.Type))
		}
	}
	return h.Sum64()
}

// TestChurnStreamsUnchanged pins streams whose graph never saturates to
// the bytes they had before GenerateChurn handled a complete graph: the
// profile above, and the first 200 batches of the system benchmark's seed-1
// churn (48 events) and trickle (4 events) inputs, protected subset
// included.
func TestChurnStreamsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	subset := make([]int32, 128)
	for i, v := range rng.Perm(8000)[:128] {
		subset[i] = int32(v)
	}
	bench := func(batchSize int) ChurnProfile {
		return ChurnProfile{
			Nodes: 8000, MaxNodes: 9000, Degree: 5,
			Batches: 200, BatchSize: batchSize,
			DeleteFrac: 0.2, GrowFrac: 0.02, BigBatch: -1,
			Protect: subset, Seed: 1,
		}
	}
	cases := []struct {
		name string
		p    ChurnProfile
		want uint64
	}{
		{"harness", churnProfile(), 0x71c2a66e24aeb810},
		{"benchmark-churn", bench(48), 0x50ccefbeb3700fb9},
		{"benchmark-trickle", bench(4), 0x024e35ec00236568},
	}
	for _, c := range cases {
		if got := streamFingerprint(GenerateChurn(c.p)); got != c.want {
			t.Errorf("%s: stream fingerprint %016x, want %016x", c.name, got, c.want)
		}
	}
}

// TestChurnCompleteGraphTerminates runs a 3-node profile with no growth
// room and no deletes: every pair is an edge within a batch or two, after
// which no plain insert is left to draw. Generation must still finish,
// with every batch full and the graph complete.
func TestChurnCompleteGraphTerminates(t *testing.T) {
	p := ChurnProfile{Nodes: 3, MaxNodes: 3, Degree: 1, Batches: 50, BatchSize: 24, BigBatch: -1}
	var (
		g       *graph.Graph
		batches [][]graph.Event
	)
	done := make(chan struct{})
	go func() {
		g, batches = GenerateChurn(p)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("GenerateChurn did not return once its graph was complete")
	}
	for i, batch := range batches {
		if len(batch) != p.BatchSize {
			t.Fatalf("batch %d has %d events, want %d", i, len(batch), p.BatchSize)
		}
		g.ApplyAll(batch)
	}
	if g.NumEdges() != 9 {
		t.Fatalf("final graph has %d edges, want all 9 pairs", g.NumEdges())
	}
}

func TestChurnValidate(t *testing.T) {
	cases := map[string]func(*ChurnProfile){
		"one node":          func(p *ChurnProfile) { p.Nodes = 1 },
		"cap below nodes":   func(p *ChurnProfile) { p.MaxNodes = p.Nodes - 1 },
		"zero degree":       func(p *ChurnProfile) { p.Degree = 0 },
		"degree too high":   func(p *ChurnProfile) { p.Degree = p.Nodes },
		"no batches":        func(p *ChurnProfile) { p.Batches = 0 },
		"empty batch":       func(p *ChurnProfile) { p.BatchSize = 0 },
		"fractions over 1":  func(p *ChurnProfile) { p.DupFrac = 0.9 },
		"negative fraction": func(p *ChurnProfile) { p.GrowFrac = -0.1 },
		"protect range":     func(p *ChurnProfile) { p.Protect = []int32{int32(p.Nodes)} },
	}
	for name, mutate := range cases {
		p := churnProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid profile accepted", name)
		}
	}
	p := churnProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
}
