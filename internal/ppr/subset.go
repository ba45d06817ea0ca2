package ppr

import (
	"context"
	"fmt"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/par"
)

// Subset maintains forward and reverse PPR states for every node of a
// subset S over one shared dynamic graph, implementing the per-snapshot
// update loop of the paper: per edge event, adjust the states the event can
// change (Algorithm 2 lines 1-7 are a no-op where p_s and r_s vanish at the
// event's tail; see Repair), then re-push all violating residues (lines
// 8-11).
//
// Per-source work (initial pushes, event replay, repair pushes) is
// embarrassingly parallel; with Params.Workers > 1 it fans out across a
// worker pool, each worker owning its own push scratch. Every per-source
// task is atomic: a cancelled ApplyEvents/Rebuild leaves each source either
// fully processed or untouched, never half-adjusted.
type Subset struct {
	Engine *Engine
	S      []int32
	Fwd    []*State // forward PPR p_s, one per subset node (nil if disabled)
	Rev    []*State // reverse-graph PPR p⊤_s, one per subset node (nil if disabled)

	engines []*Engine // per-worker scratch engines sharing Engine.G

	// batch is the applied slice of the Repair in flight and repairFn the
	// per-source task that reads it, bound once so a Repair allocates no
	// closure.
	batch    []Applied
	repairFn func(worker, i int) error
}

// NewSubset builds forward and reverse PPR states for every s ∈ S on the
// current graph, running the initial pushes. Reverse states capture the
// transposed-graph PPR used by the STRAP proximity (Section 3.1).
func NewSubset(g *graph.Graph, s []int32, params Params) (*Subset, error) {
	return NewSubsetDirs(g, s, params, true, true)
}

// NewSubsetDirs is NewSubset with per-direction control: hashing-based
// methods like DynPPE only need the forward vectors.
func NewSubsetDirs(g *graph.Graph, s []int32, params Params, fwd, rev bool) (*Subset, error) {
	for _, v := range s {
		if int(v) >= g.NumNodes() || v < 0 {
			return nil, fmt.Errorf("ppr: subset node %d outside graph with %d nodes", v, g.NumNodes())
		}
	}
	sp, err := newSubsetShell(g, s, params)
	if err != nil {
		return nil, err
	}
	if fwd {
		sp.Fwd = make([]*State, len(s))
	}
	if rev {
		sp.Rev = make([]*State, len(s))
	}
	if err := par.ForWorkerErr(nil, len(sp.S), par.Workers(sp.Engine.Params.Workers), func(worker, i int) error {
		eng := sp.engines[worker]
		if fwd {
			sp.Fwd[i] = NewState(sp.S[i], graph.Forward)
			eng.Push(sp.Fwd[i])
		}
		if rev {
			sp.Rev[i] = NewState(sp.S[i], graph.Reverse)
			eng.Push(sp.Rev[i])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return sp, nil
}

// RestoreSubset rebuilds a Subset from persisted states without running
// any pushes (the states are taken as-is). Used by the save/load path.
// Unlike NewSubsetDirs it receives states from an untrusted decode, so it
// re-runs the structural checks a fresh build guarantees by construction:
// subset ids inside the graph, one state per subset node in matching
// order and direction, and every estimate/residue key a valid node id
// (and a member of the state's rebuilt membership set). A corrupted save
// errors here instead of panicking on first use.
func RestoreSubset(g *graph.Graph, s []int32, params Params, fwd, rev []*State) (*Subset, error) {
	for _, v := range s {
		if int(v) >= g.NumNodes() || v < 0 {
			return nil, fmt.Errorf("ppr: restore: subset node %d outside graph with %d nodes", v, g.NumNodes())
		}
	}
	if err := validateStates(g, s, fwd, graph.Forward); err != nil {
		return nil, err
	}
	if err := validateStates(g, s, rev, graph.Reverse); err != nil {
		return nil, err
	}
	sp, err := newSubsetShell(g, s, params)
	if err != nil {
		return nil, err
	}
	sp.Fwd = fwd
	sp.Rev = rev
	return sp, nil
}

// validateStates checks one direction's restored state slice against the
// subset and the graph, rebuilding each state's membership set from its
// checked keys. A nil slice is valid (direction disabled).
func validateStates(g *graph.Graph, s []int32, states []*State, dir graph.Direction) error {
	if states == nil {
		return nil
	}
	if len(states) != len(s) {
		return fmt.Errorf("ppr: restore: %d %v states for a subset of %d nodes", len(states), dir, len(s))
	}
	n := int32(g.NumNodes())
	for i, st := range states {
		switch {
		case st == nil:
			return fmt.Errorf("ppr: restore: nil %v state for subset node %d", dir, s[i])
		case st.Source != s[i]:
			return fmt.Errorf("ppr: restore: %v state %d has source %d, want subset node %d", dir, i, st.Source, s[i])
		case st.Dir != dir:
			return fmt.Errorf("ppr: restore: state for subset node %d has direction %v, want %v", s[i], st.Dir, dir)
		case st.P == nil || st.R == nil:
			return fmt.Errorf("ppr: restore: %v state for subset node %d has nil maps", dir, s[i])
		}
		// The membership set is not persisted: rebuild it from the keys as
		// each passes its range check, so a corrupt key never sizes it.
		st.member = nil
		for u := range st.P {
			if u < 0 || u >= n {
				return fmt.Errorf("ppr: restore: estimate key %d of source %d outside graph with %d nodes", u, st.Source, n)
			}
			st.mark(u)
		}
		for u := range st.R {
			if u < 0 || u >= n {
				return fmt.Errorf("ppr: restore: residue key %d of source %d outside graph with %d nodes", u, st.Source, n)
			}
			st.mark(u)
		}
		for _, u := range st.Touched {
			if u < 0 || u >= n {
				return fmt.Errorf("ppr: restore: touched key %d of source %d outside graph with %d nodes", u, st.Source, n)
			}
		}
	}
	return nil
}

// newSubsetShell allocates the shared engine and per-worker scratch engines.
func newSubsetShell(g *graph.Graph, s []int32, params Params) (*Subset, error) {
	eng, err := NewEngine(g, params)
	if err != nil {
		return nil, err
	}
	sp := &Subset{Engine: eng, S: append([]int32(nil), s...)}
	w := par.Workers(params.Workers)
	sp.engines = make([]*Engine, w)
	sp.engines[0] = sp.Engine
	for i := 1; i < w; i++ {
		sp.engines[i], _ = NewEngine(g, params) // params already validated
		sp.engines[i].Met = eng.Met             // one shared counter set per subset
	}
	sp.repairFn = sp.repairSource
	return sp, nil
}

// Metrics returns the subset's shared work counters (see Metrics).
func (sp *Subset) Metrics() *Metrics { return sp.Engine.Met }

// Applied records one effective graph mutation together with the
// post-event degrees the Algorithm 2 corrections need, so the per-source
// replay can run after (and independent of) the graph mutation: ApplyAll
// advances the graph once and Repair replays the resulting slice.
type Applied struct {
	Ev      graph.Event
	OutDegU float64 // post-event out-degree of U (forward adjustment)
	InDegV  float64 // post-event in-degree of V (reverse adjustment)
}

// ApplyAll advances g through the events sequentially (event order
// matters), recording every effective mutation with the post-event
// degrees Repair needs. Duplicate inserts and missing deletes leave the
// graph unchanged and are dropped from the result.
func ApplyAll(g *graph.Graph, events []graph.Event) []Applied {
	applied := make([]Applied, 0, len(events))
	for _, ev := range events {
		if !g.Apply(ev) {
			continue // duplicate insert / missing delete: graph unchanged
		}
		applied = append(applied, Applied{
			Ev:      ev,
			OutDegU: float64(g.OutDeg(ev.U)),
			InDegV:  float64(g.InDeg(ev.V)),
		})
	}
	return applied
}

// ApplyEvents advances the shared graph through the events and
// incrementally repairs the states they reach. Cost O(|S|·(τ + 1/r_max))
// per Theorem 3.7's first term, of which an unreached state pays τ bit
// tests. The graph mutation is sequential (event order
// matters); the per-source corrections and repair pushes run on the
// worker pool with ctx-aware cancellation. On a non-nil error the graph
// has already advanced but some sources may not have been repaired —
// callers must recover by a full Rebuild before trusting the estimates.
func (sp *Subset) ApplyEvents(ctx context.Context, events []graph.Event) error {
	return sp.Repair(ctx, ApplyAll(sp.Engine.G, events))
}

// Repair replays the Algorithm 2 corrections for an already-applied
// event slice (see ApplyAll) and re-pushes the violating residues, on the
// states the batch can change. An event whose tail a is outside a state's
// membership set has p_s(a) = r_s(a) = 0 there: its correction would only
// mark a dirty and return, and Push would then find r_s(a) = 0 and seed
// nothing, so skipping the call changes no bit of the state. Membership
// is tested live per (state, event), so an event that makes a later tail
// reachable within the same batch (its addR marks the node) is honoured;
// a state with no executed correction and no pending dirty residue is
// not pushed. The graph must already reflect the events; it is only read
// here, and each worker writes only its own states. On a non-nil error
// some sources may not have been repaired — recover with Rebuild.
func (sp *Subset) Repair(ctx context.Context, applied []Applied) error {
	if len(applied) == 0 {
		return nil
	}
	sp.batch = applied
	err := par.ForWorkerErr(ctx, len(sp.S), par.Workers(sp.Engine.Params.Workers), sp.repairFn)
	sp.batch = nil
	return err
}

// repairSource repairs both states of subset node i against sp.batch.
func (sp *Subset) repairSource(worker, i int) error {
	eng := sp.engines[worker]
	if sp.Fwd != nil {
		eng.repair(sp.Fwd[i], sp.batch)
	}
	if sp.Rev != nil {
		eng.repair(sp.Rev[i], sp.batch)
	}
	return nil
}

// repair runs the batch's corrections whose tail st's membership set
// holds, then pushes if any ran or a residue is still marked dirty (the
// first repair after a load).
func (e *Engine) repair(st *State, applied []Applied) {
	adjusts := uint64(0)
	for _, ae := range applied {
		a, b, d := ae.Ev.U, ae.Ev.V, ae.OutDegU
		if st.Dir == graph.Reverse {
			a, b, d = ae.Ev.V, ae.Ev.U, ae.InDegV
		}
		if !st.Member(a) {
			continue
		}
		e.adjustWithDeg(st, a, b, ae.Ev.Type, d)
		adjusts++
	}
	if adjusts == 0 && len(st.dirtyR) == 0 {
		return
	}
	e.Push(st)
	e.Met.Adjusts.Add(adjusts)
	e.Met.StatesRepaired.Add(1)
}

// Rebuild recomputes every state from scratch on the current graph, the
// O(|S|/r_max) fallback of Theorem 3.7 for very large batches. Fresh
// states replace the old ones per source only after that source's pushes
// finish, so a cancelled Rebuild leaves every state either old-and-valid
// or new-and-valid.
func (sp *Subset) Rebuild(ctx context.Context) error {
	dirs := uint64(0)
	if sp.Fwd != nil {
		dirs++
	}
	if sp.Rev != nil {
		dirs++
	}
	sp.Engine.Met.SourceRebuilds.Add(uint64(len(sp.S)) * dirs)
	return par.ForWorkerErr(ctx, len(sp.S), par.Workers(sp.Engine.Params.Workers), func(worker, i int) error {
		eng := sp.engines[worker]
		if sp.Fwd != nil {
			st := NewState(sp.S[i], graph.Forward)
			eng.Push(st)
			sp.Fwd[i] = st
		}
		if sp.Rev != nil {
			st := NewState(sp.S[i], graph.Reverse)
			eng.Push(st)
			sp.Rev[i] = st
		}
		return nil
	})
}

// RebuildThreshold reports whether a batch of size tau is past the point
// where Theorem 3.7's min(τ + 1/r_max, |S|/r_max)-style accounting favors
// recomputing each state from scratch: per source the incremental path
// costs Θ(τ) correction work plus pushes, while a fresh push is bounded
// by O(1/r_max).
func (sp *Subset) RebuildThreshold(tau int) bool {
	return float64(tau) > 1/sp.Engine.Params.RMax
}
