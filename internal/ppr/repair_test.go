package ppr

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/tree-svd/treesvd/internal/dataset"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// states lists every state of a subset, forward first.
func states(sp *Subset) []*State {
	return append(append([]*State(nil), sp.Fwd...), sp.Rev...)
}

// repairEverywhere is the reference Subset.Repair is exact against: the
// public AdjustEvent for every effective event on every state, then Push
// on every state — no membership test, no skipped push.
func repairEverywhere(sp *Subset, events []graph.Event) {
	for _, ev := range events {
		if !sp.Engine.G.Apply(ev) {
			continue
		}
		for _, st := range states(sp) {
			sp.Engine.AdjustEvent(st, ev)
		}
	}
	for _, st := range states(sp) {
		sp.Engine.Push(st)
	}
}

// requireSameProximity fails unless the two proximities hold ==-equal
// states and matrices, incremental block norms included.
func requireSameProximity(t *testing.T, when string, got, want *Proximity) {
	t.Helper()
	gs, ws := states(got.Sub), states(want.Sub)
	for i := range gs {
		gp, gr := content(gs[i])
		wp, wr := content(ws[i])
		if !maps.Equal(gp, wp) || !maps.Equal(gr, wr) {
			t.Fatalf("%s: source %d %v: estimates or residues differ", when, gs[i].Source, gs[i].Dir)
		}
	}
	if !reflect.DeepEqual(got.M.ToCSR(), want.M.ToCSR()) {
		t.Fatalf("%s: proximity matrices differ", when)
	}
	for j := 0; j < got.M.NumBlocks(); j++ {
		if got.M.BlockFrobNorm(j) != want.M.BlockFrobNorm(j) || got.M.DeltaFrobNorm(j) != want.M.DeltaFrobNorm(j) {
			t.Fatalf("%s: block %d norms differ", when, j)
		}
	}
}

// hostileStream is a hand-built graph and batches aimed at the skip's
// edge cases. Nodes 0–5 form the component the subset {0, 1} lives in;
// 6–9 are a separate cycle no state reaches until a batch bridges to it;
// 10 and 11 are isolated; ids ≥ 12 do not exist yet.
func hostileStream() (*graph.Graph, []int32, [][]graph.Event) {
	g := graph.New(12)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {6, 7}, {7, 8}, {8, 9}, {9, 6}} {
		g.InsertEdge(e[0], e[1])
	}
	ins := func(u, v int32) graph.Event { return graph.Event{U: u, V: v, Type: graph.Insert} }
	del := func(u, v int32) graph.Event { return graph.Event{U: u, V: v, Type: graph.Delete} }
	return g, []int32{0, 1}, [][]graph.Event{
		{ins(7, 9), del(8, 9)},                       // unreached component only: every state skips
		{ins(1, 2), ins(1, 2), del(10, 11)},          // duplicate insert, missing delete: no effective event
		{ins(3, 3), ins(3, 0), del(3, 3)},            // self-loop in and out at a reached node
		{del(4, 5), ins(4, 4), del(4, 4), ins(4, 5)}, // degree 1 → sink → explicit self-loop → sink → degree 1
		{ins(0, 6), ins(6, 2), del(6, 7)},            // tail 6 becomes reachable through the batch's own first event
		{ins(10, 0), ins(11, 10)},                    // reverse states reach 10, then 11 through it
		{ins(5, 14), ins(14, 15), ins(15, 1)},        // ids growing past the initial NumNodes
		{del(0, 1), del(1, 2), ins(1, 0)},            // deletes at the sources themselves
		{del(5, 14), del(0, 6), ins(13, 13)},         // cut the bridges again; self-loop on a fresh isolated id
		{ins(7, 8), del(7, 9), ins(2, 7)},            // back into the cycle the states first skipped
	}
}

// churnStream is a dataset.GenerateChurn stream with every adversarial
// event class on, small enough that r_max leaves most states unreached
// by most events.
func churnStream(seed int64, batchSize int) (*graph.Graph, []int32, [][]graph.Event) {
	rng := rand.New(rand.NewSource(seed))
	subset := make([]int32, 12)
	for i, v := range rng.Perm(400)[:len(subset)] {
		subset[i] = int32(v)
	}
	slices.Sort(subset)
	g, batches := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: 400, MaxNodes: 440, Degree: 3, Batches: 40, BatchSize: batchSize,
		SelfLoopFrac: 0.1, DeleteFrac: 0.2, DupFrac: 0.05, MissFrac: 0.05, GrowFrac: 0.05,
		BigBatch: -1, Protect: subset, Seed: seed,
	})
	return g, subset, batches
}

// TestRepairMatchesAdjustEverywhere is the skip's exactness claim as a
// differential: Subset.Repair (membership-tested corrections, pushes only
// where something is dirty, refresh of touched rows) against the
// reference that adjusts and pushes every state, compared with == after
// every batch, at one and two workers.
func TestRepairMatchesAdjustEverywhere(t *testing.T) {
	type stream struct {
		name    string
		g       *graph.Graph
		subset  []int32
		batches [][]graph.Event
	}
	var streams []stream
	g, s, b := hostileStream()
	streams = append(streams, stream{"hostile", g, s, b})
	for seed := int64(1); seed <= 3; seed++ {
		for _, size := range []int{4, 48} {
			g, s, b := churnStream(seed, size)
			streams = append(streams, stream{fmt.Sprintf("churn-seed%d-batch%d", seed, size), g, s, b})
		}
	}
	for _, sc := range streams {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers%d", sc.name, workers), func(t *testing.T) {
				params := Params{Alpha: 0.15, RMax: 5e-3, Workers: workers}
				got := NewProximity(mustPPR(NewSubset(sc.g.Clone(), sc.subset, params)), 440, 8)
				want := NewProximity(mustPPR(NewSubset(sc.g.Clone(), sc.subset, params)), 440, 8)
				effective := 0
				for bi, batch := range sc.batches {
					applied := ApplyAll(got.Sub.Engine.G, batch)
					effective += len(applied)
					must0t(got.RepairApplied(bgt, applied))
					repairEverywhere(want.Sub, batch)
					want.Refresh()
					requireSameProximity(t, fmt.Sprintf("batch %d", bi), got, want)
				}
				// The comparison must have exercised the skip, not two
				// copies of the same full sweep.
				met, all := got.Sub.Metrics(), uint64(len(states(got.Sub)))
				if a := met.Adjusts.Load(); a == 0 || a >= uint64(effective)*all {
					t.Errorf("%d corrections executed for %d events × %d states: skip not exercised", a, effective, all)
				}
				// (A 48-event batch reaches every state of a 400-node graph,
				// so only the upper bound holds for the state count.)
				if r := met.StatesRepaired.Load(); r == 0 || r > uint64(len(sc.batches))*all {
					t.Errorf("%d states repaired over %d batches × %d states", r, len(sc.batches), all)
				}
			})
		}
	}
}

// gobRoundTrip encodes v and decodes it into out.
func gobRoundTrip(t *testing.T, v, out any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSubsetGobRoundTripBehaviour extends TestStateGobRoundTripBehaviour
// to a Subset: states saved mid-stream and restored (membership sets
// rebuilt from the decoded keys) must evolve bit for bit like the live
// ones under the same tail, and a state's encoding is a function of its
// contents — encoding twice, or re-encoding the decoded state, gives the
// same bytes.
func TestSubsetGobRoundTripBehaviour(t *testing.T) {
	g, subset, batches := churnStream(7, 4)
	params := Params{Alpha: 0.15, RMax: 5e-3}
	live := NewProximity(mustPPR(NewSubset(g, subset, params)), 440, 8)
	half := len(batches) / 2
	for _, batch := range batches[:half] {
		must0t(applyEvents(live, batch))
	}

	restore := func(in []*State) []*State {
		out := make([]*State, len(in))
		for i, st := range in {
			out[i] = &State{}
			raw := gobRoundTrip(t, st, out[i])
			var again State
			if !bytes.Equal(raw, gobRoundTrip(t, st, &again)) || !bytes.Equal(raw, gobRoundTrip(t, out[i], &again)) {
				t.Fatalf("source %d %v: encoding is not deterministic", st.Source, st.Dir)
			}
		}
		return out
	}
	m := &sparse.DynRow{}
	gobRoundTrip(t, live.M, m)
	sub, err := RestoreSubset(g.Clone(), subset, params, restore(live.Sub.Fwd), restore(live.Sub.Rev))
	if err != nil {
		t.Fatal(err)
	}
	loaded := RestoreProximity(sub, m)
	for _, st := range states(sub) {
		st.Each(func(u int32, _, _ float64) {
			if !st.Member(u) {
				t.Fatalf("source %d %v: restored key %d outside the membership set", st.Source, st.Dir, u)
			}
		})
	}

	for bi, batch := range batches[half:] {
		must0t(applyEvents(live, batch))
		must0t(applyEvents(loaded, batch))
		requireSameProximity(t, fmt.Sprintf("tail batch %d", bi), loaded, live)
	}
}

// nonCanonical are wire forms no encoder emits, each with the part of the
// error the decoder must refuse it with.
var nonCanonical = []struct {
	name, want string
	wire       gobState
}{
	{"duplicate estimate key", "repeats 1 of its 2 estimate keys", gobState{PKeys: []int32{3, 3}, PVals: []float64{0.1, 0.2}}},
	{"duplicate residue key", "repeats 1 of its 3 residue keys", gobState{RKeys: []int32{5, 2, 5}, RVals: []float64{0.1, 0.2, 0.3}}},
	{"stored zero estimate", "non-canonical estimate value 0", gobState{PKeys: []int32{3}, PVals: []float64{0}}},
	{"stored zero residue", "non-canonical residue value 0", gobState{RKeys: []int32{3}, RVals: []float64{0}}},
	{"infinite estimate", "non-canonical estimate value +Inf", gobState{PKeys: []int32{3}, PVals: []float64{math.Inf(1)}}},
	{"NaN residue", "non-canonical residue value NaN", gobState{RKeys: []int32{3}, RVals: []float64{math.NaN()}}},
	{"values shorter", "2/1 estimate keys/values", gobState{PKeys: []int32{3, 4}, PVals: []float64{0.1}}},
	// -1 marks a free table slot; any negative id is refused before the
	// table sees it.
	{"free-slot marker as key", "negative estimate key -1", gobState{PKeys: []int32{2, -1}, PVals: []float64{0.1, 0.2}}},
	{"negative residue key", "negative residue key -3", gobState{RKeys: []int32{-3}, RVals: []float64{0.1}}},
}

// TestStateGobDecodeRejectsNonCanonical: the decoder accepts only the
// form the engine maintains — every key once, non-negative, with a finite
// non-zero value — because an unset membership bit must prove a zero
// entry and the table reserves -1 for its free slots.
func TestStateGobDecodeRejectsNonCanonical(t *testing.T) {
	for i, raw := range NonCanonicalWires() {
		tc := nonCanonical[i]
		if err := new(State).GobDecode(raw); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decoder returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// islands is two disjoint 40-node random graphs in one id space: the
// subset lives in the first, so events inside the second reach no state.
func islands() (*graph.Graph, []int32) {
	rng := rand.New(rand.NewSource(11))
	g := graph.New(80)
	for _, off := range []int32{0, 40} {
		for v := int32(0); v < 40; v++ {
			for g.OutDeg(off+v) < 3 {
				if u := int32(rng.Intn(40)); u != v {
					g.InsertEdge(off+v, off+u)
				}
			}
		}
	}
	return g, []int32{1, 5, 9, 13, 17, 21}
}

// TestRepairAllocations pins the steady-state allocation claim on a
// warmed subset: a batch that reaches no state allocates nothing in
// RepairApplied, and one that reaches states stays under a small fixed
// bound (a table rehash is all that is left). The batches toggle
// one edge so every one of them is effective.
func TestRepairAllocations(t *testing.T) {
	g, subset := islands()
	pr := NewProximity(mustPPR(NewSubset(g, subset, Params{Alpha: 0.15, RMax: 1e-3})), 80, 4)
	measure := func(u, v int32) (allocs float64, reached uint64) {
		applied := make([]Applied, 1)
		typ := graph.Insert
		step := func() {
			ev := graph.Event{U: u, V: v, Type: typ}
			if !g.Apply(ev) {
				t.Fatalf("event %v had no effect", ev)
			}
			applied[0] = Applied{Ev: ev, OutDegU: float64(g.OutDeg(u)), InDegV: float64(g.InDeg(v))}
			must0t(pr.RepairApplied(bgt, applied))
			if typ = graph.Delete; ev.Type == graph.Delete {
				typ = graph.Insert
			}
		}
		for i := 0; i < 20; i++ { // warm: scratch, Touched/dirtyR backing arrays, adjacency capacity
			step()
		}
		before := pr.Sub.Metrics().StatesRepaired.Load()
		allocs = testing.AllocsPerRun(100, step)
		return allocs, pr.Sub.Metrics().StatesRepaired.Load() - before
	}
	u, v := int32(50), int32(70)
	for g.HasEdge(u, v) {
		v++
	}
	if allocs, reached := measure(u, v); reached != 0 || allocs != 0 {
		t.Errorf("unreached batch: %v allocations, %d states repaired, want 0 and 0", allocs, reached)
	}
	u, v = 1, 30
	for g.HasEdge(u, v) {
		v++
	}
	const reachedBound = 4
	if allocs, reached := measure(u, v); reached == 0 || allocs > reachedBound {
		t.Errorf("reached batch: %v allocations (bound %d), %d states repaired (want > 0)", allocs, reachedBound, reached)
	}
}

// BenchmarkRepair times Proximity.RepairApplied (repair + refresh) at the
// system benchmark's shape — 8 000 nodes, |S| = 128, r_max 1e-3, the
// ingest workloads' event mix — in batches of 4 (trickle) and 48 (churn),
// with the number of the 256 states each batch reached and the mean bytes
// of a state's table at the end beside it. cpu-ms/batch is the process's
// CPU time inside the timed repairs; its two reads sit in the timed window.
func BenchmarkRepair(b *testing.B) {
	for _, bc := range []struct {
		name      string
		batchSize int
	}{{"trickle", 4}, {"churn", 48}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			subset := make([]int32, 128)
			for i, v := range rng.Perm(8000)[:len(subset)] {
				subset[i] = int32(v)
			}
			slices.Sort(subset)
			g, batches := dataset.GenerateChurn(dataset.ChurnProfile{
				Nodes: 8000, MaxNodes: 9000, Degree: 5, Batches: b.N, BatchSize: bc.batchSize,
				DeleteFrac: 0.2, GrowFrac: 0.02, BigBatch: -1, Protect: subset, Seed: 1,
			})
			pr := NewProximity(mustPPR(NewSubset(g, subset, Params{Alpha: 0.15, RMax: 1e-3})), 9000, 64)
			var cpu time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for _, batch := range batches {
				b.StopTimer()
				applied := ApplyAll(g, batch)
				b.StartTimer()
				cpu0 := cpuTime(b)
				if err := pr.RepairApplied(bgt, applied); err != nil {
					b.Fatal(err)
				}
				cpu += cpuTime(b) - cpu0
			}
			b.ReportMetric(cpu.Seconds()*1e3/float64(b.N), "cpu-ms/batch")
			b.ReportMetric(float64(pr.Sub.Metrics().StatesRepaired.Load())/float64(b.N), "reached_states/batch")
			all, size := states(pr.Sub), 0
			for _, st := range all {
				size += len(st.tab.keys)*int(unsafe.Sizeof(int32(0))) + len(st.tab.vals)*int(unsafe.Sizeof(entry{}))
			}
			b.ReportMetric(float64(size)/float64(len(all)), "table_bytes/state")
		})
	}
}
