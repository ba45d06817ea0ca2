// Package ppr implements the personalized-PageRank machinery of the paper:
// the Forward-Push algorithm of Andersen et al. (Algorithm 1), the dynamic
// Forward-Push of Zhang et al. (Algorithm 2) that maintains estimate and
// residue vectors across edge events, per-subset management of forward and
// reverse PPR states, and the STRAP-style log-transformed proximity matrix.
package ppr

import (
	"fmt"
	"slices"

	"github.com/tree-svd/treesvd/internal/graph"
)

// Params are the PPR knobs: the decay factor α and the push threshold
// r_max (Table 2). Smaller r_max means more accurate estimates at
// O(1/r_max) push cost. Workers parallelizes per-source work (0 or 1 =
// sequential; each worker gets its own push scratch). Met, when non-nil,
// is the shared work-counter set every engine built from these params
// reports into — a sharded embedder passes one instance to every shard's
// Subset so the counts aggregate across shards; nil allocates a private
// set per NewEngine.
type Params struct {
	Alpha   float64
	RMax    float64
	Workers int
	Met     *Metrics
	// Retired; named by benchmark/trace.go, delete with ROADMAP item 3's
	// seam. Validate rejects true.
	Accel bool
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return fmt.Errorf("ppr: alpha %g outside (0,1)", p.Alpha)
	}
	if p.RMax <= 0 {
		return fmt.Errorf("ppr: rmax %g must be positive", p.RMax)
	}
	if p.Accel {
		return fmt.Errorf("ppr: Accel was removed: the over-relaxed push did more pushes than the classic step on every benchmark stream")
	}
	return nil
}

// State holds the estimate vector p_s and residue vector r_s of one source
// in one traversal direction, plus the nodes whose estimate changed since
// the last Proximity refresh. P and R are canonical: a key is present iff
// its value is non-zero.
type State struct {
	Source int32
	Dir    graph.Direction
	P      map[int32]float64
	R      map[int32]float64
	// Touched lists nodes whose P entry changed since the caller last
	// drained it (used to refresh proximity-matrix entries incrementally).
	// A node may repeat; drain with Touched = Touched[:0] to keep the
	// backing array.
	Touched []int32
	// dirtyR lists nodes (repeats allowed) whose residue or traversal
	// degree changed since the last Push, so re-pushing seeds in
	// O(changed) instead of scanning the whole residue map. The push
	// invariant guarantees no other node can violate the threshold.
	dirtyR []int32
	// member is a bitset over node ids that is a superset of
	// supp(P) ∪ supp(R): a bit is set wherever a P or R key can be created
	// and never cleared, so an unset bit proves P[u] == 0 ∧ R[u] == 0.
	// Subset.Repair tests it to skip the events that cannot change this
	// state. Rebuilt on decode, never persisted.
	member []uint64
}

// NewState initializes a state with the one-hot residue r_s = 1_s.
func NewState(source int32, dir graph.Direction) *State {
	st := &State{
		Source: source,
		Dir:    dir,
		P:      make(map[int32]float64),
		R:      map[int32]float64{source: 1},
		dirtyR: []int32{source},
	}
	st.mark(source)
	return st
}

// mark adds u to the membership set, growing it on demand — to the exact
// size, not append's doubling: a state grows its set a handful of times in
// its life and keeps it, so slack would be held 2·|S| times over.
func (st *State) mark(u int32) {
	w := int(u >> 6)
	if w >= len(st.member) {
		st.member = append(make([]uint64, 0, w+1), st.member...)[:w+1]
	}
	st.member[w] |= 1 << (uint(u) & 63)
}

// Member reports whether u is in the membership set; false proves
// P[u] == 0 and R[u] == 0. The converse does not hold (bits outlive keys).
func (st *State) Member(u int32) bool {
	w := int(u >> 6)
	return w < len(st.member) && st.member[w]&(1<<(uint(u)&63)) != 0
}

// Engine runs push operations for states over a shared graph, reusing
// scratch queues across sources.
type Engine struct {
	G      *graph.Graph
	Params Params
	// Met receives the engine's work counters; always non-nil (NewEngine
	// allocates one, and Subset shares a single instance across its
	// worker engines so counts aggregate).
	Met *Metrics

	inQueue []bool
	queue   []int32
}

// NewEngine creates an engine over g. The graph may keep growing; scratch
// structures resize on demand. It returns an error when params are invalid.
func NewEngine(g *graph.Graph, params Params) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	met := params.Met
	if met == nil {
		met = &Metrics{}
	}
	return &Engine{G: g, Params: params, Met: met}, nil
}

func (e *Engine) ensureScratch() {
	if n := e.G.NumNodes(); len(e.inQueue) < n {
		e.inQueue = make([]bool, n)
	}
}

// degOrOne returns the traversal degree of u, treating dangling nodes as
// having an implicit self-loop (degree 1), the standard sink convention.
func (e *Engine) degOrOne(u int32, dir graph.Direction) float64 {
	if d := e.G.Degree(u, dir); d > 0 {
		return float64(d)
	}
	return 1
}

// Push runs the Forward-Push loop (Algorithm 1 lines 2-3 and the negative
// counterpart of Algorithm 2 lines 8-11) until no node's |residue|/degree
// exceeds r_max. It pushes positive and negative residues alike, so it
// serves both the static build and the dynamic repair phase.
func (e *Engine) Push(st *State) {
	e.ensureScratch()
	alpha, rmax := e.Params.Alpha, e.Params.RMax
	// Seed the queue with the violating nodes among those whose residue
	// or degree changed since the last Push; the push invariant ensures
	// no other node can have crossed the threshold. The seeds are sorted
	// so results do not depend on the order they were marked dirty —
	// pushes are reproducible run-to-run and across worker counts.
	e.queue = e.queue[:0]
	for _, u := range st.dirtyR {
		if !e.inQueue[u] && abs(st.R[u]) > rmax*e.degOrOne(u, st.Dir) {
			e.queue = append(e.queue, u)
			e.inQueue[u] = true
		}
	}
	slices.Sort(e.queue)
	st.dirtyR = st.dirtyR[:0]
	// pushed is accumulated locally and folded into Met with one atomic
	// add at the end — the loop body stays free of shared-memory traffic.
	// The queue is popped by head index so its backing array is reused.
	pushed := uint64(0)
	for head := 0; head < len(e.queue); head++ {
		u := e.queue[head]
		e.inQueue[u] = false
		ru := st.R[u]
		if ru == 0 {
			continue
		}
		deg := float64(e.G.Degree(u, st.Dir))
		if abs(ru) <= rmax*max(deg, 1) {
			continue
		}
		// PUSH(u): settle α·r at u, spread (1−α)·r across neighbors.
		pushed++
		st.bumpP(u, alpha*ru)
		delete(st.R, u)
		if deg == 0 {
			// Dangling sink: the (1−α) share self-loops back to u.
			rem := (1 - alpha) * ru
			if rem != 0 {
				st.R[u] = rem
				st.mark(u)
			}
			if abs(rem) > rmax {
				e.enqueue(u)
			}
			continue
		}
		share := (1 - alpha) * ru / deg
		for _, v := range e.G.Neighbors(u, st.Dir) {
			rv := st.R[v] + share
			if rv == 0 {
				delete(st.R, v)
			} else {
				st.R[v] = rv
				st.mark(v)
			}
			if abs(rv) > rmax*e.degOrOne(v, st.Dir) {
				e.enqueue(v)
			}
		}
	}
	e.Met.Pushes.Add(pushed)
}

func (e *Engine) enqueue(u int32) {
	if !e.inQueue[u] {
		e.inQueue[u] = true
		e.queue = append(e.queue, u)
	}
}

// bumpP adds delta to p_s(u) and records u as touched.
func (st *State) bumpP(u int32, delta float64) {
	if delta == 0 {
		return
	}
	nv := st.P[u] + delta
	if nv == 0 {
		delete(st.P, u)
	} else {
		st.P[u] = nv
		st.mark(u)
	}
	st.Touched = append(st.Touched, u)
}

// AdjustEvent applies the estimate/residue corrections of Algorithm 2
// (lines 1-7) for a single edge event. The graph must already reflect the
// event (degrees are read post-event, which keeps both the insert and the
// delete formulas well-defined for positive degrees). Corrections with a
// zero estimate at the event's tail are no-ops and skipped.
//
// Sink transitions are handled exactly under the self-loop convention the
// push engine uses for dangling nodes. When a sink a (all arriving mass
// eventually absorbed, so p(a) equals the absorbed arrivals M) gains its
// first real out-edge, each arrival now stops with probability α and
// moves on otherwise: p'(a) = α·p(a) and r(b) += (1−α)·p(a). When a
// degree-1 node loses its last out-edge the correction is the exact
// inverse: p'(a) = p(a)/α and r(b) −= (1−α)·p(a)/α.
//
// Self-loop events (a == b) take a dedicated correction path — see
// adjustSelfLoop; the a ≠ b formulas above are not valid for them.
func (e *Engine) AdjustEvent(st *State, ev graph.Event) {
	a, b := ev.U, ev.V
	if st.Dir == graph.Reverse {
		a, b = b, a
	}
	if int(a) >= e.G.NumNodes() || int(b) >= e.G.NumNodes() {
		return
	}
	e.adjustWithDeg(st, a, b, ev.Type, float64(e.G.Degree(a, st.Dir)))
}

// adjustWithDeg is AdjustEvent with the post-event traversal degree of a
// supplied by the caller, so batched updates can record degrees while
// mutating the graph and replay the per-source corrections in parallel
// afterwards.
func (e *Engine) adjustWithDeg(st *State, a, b int32, typ graph.EventType, d float64) {
	// a's traversal degree changed, so its existing residue may now
	// violate the push threshold even if no estimate mass moves.
	st.dirtyR = append(st.dirtyR, a)
	pa := st.P[a]
	if pa == 0 {
		return
	}
	alpha := e.Params.Alpha
	if a == b {
		e.adjustSelfLoop(st, a, typ, d)
		return
	}
	if typ == graph.Insert {
		if d == 1 {
			// Sink → degree 1: of the absorbed arrivals p(a), only the
			// α-fraction still stops at a; the rest walks on to b.
			st.setP(a, alpha*pa)
			st.addR(b, (1-alpha)*pa)
			return
		}
		pa *= d / (d - 1)
		st.setP(a, pa)
		st.addR(a, -pa/(d*alpha))
		st.addR(b, (1-alpha)*pa/(d*alpha))
	} else {
		if d == 0 {
			// Degree 1 → sink: every arrival is now absorbed at a; retract
			// the (1−α)-share previously routed to b.
			st.setP(a, pa/alpha)
			st.addR(b, -(1-alpha)*pa/alpha)
			return
		}
		pa *= d / (d + 1)
		st.setP(a, pa)
		st.addR(a, pa/(d*alpha))
		st.addR(b, -(1-alpha)*pa/(d*alpha))
	}
}

// adjustSelfLoop applies the a == b corrections for self-loop events. The
// a ≠ b formulas of Algorithm 2 are derived for an edge whose endpoints
// are distinct nodes; applying them verbatim to a self-loop writes the
// estimate rescale and the addR(b,…) residue correction onto the same
// node, which is wrong in the sink-transition cases. The exact a == b
// corrections follow from the push identity r = e_s − p·(I − (1−α)P̃)/α
// (P̃ is the traversal matrix with the engine's implicit self-loop at
// dangling nodes) under the rank-1 row perturbation P̃' = P̃ + e_a(q'−q)ᵀ:
//
//   - insert, d == 1: a was dangling, so its effective row was already
//     e_a; making the self-loop explicit leaves P̃ unchanged. The exact
//     correction is a no-op — in particular the sink→degree-1 formula
//     p'(a) = α·p(a), r(a) += (1−α)·p(a) must NOT run: it deflates the
//     estimate by a factor α and manufactures (1−α)·p(a) of artificial
//     residue that later pushes have to settle all over again.
//   - delete, d == 0: the inverse transition — removing the only
//     (self-loop) edge returns a to the implicit-self-loop convention,
//     again leaving P̃ unchanged. No-op; the degree-1→sink formula
//     p'(a) = p(a)/α would inflate the estimate by 1/α and create
//     (1−α)·p(a)/α of spurious negative residue.
//   - insert, d ≥ 2: q' = ((d−1)q + e_a)/d; choosing p'(a) = p(a)·d/(d−1)
//     cancels the q-component and both residue terms land on a itself:
//     Δr(a) = (p(a) − p'(a))/α + (1−α)p'(a)/(dα) = −p'(a)/d.
//   - delete, d ≥ 1: q' = ((d+1)q − e_a)/d; p'(a) = p(a)·d/(d+1) and the
//     mirrored algebra gives Δr(a) = +p'(a)/d.
//
// The combined Δr keeps the estimate/residue mass Σp + Σr invariant, so
// check.PPRState's accounting holds across self-loop churn.
func (e *Engine) adjustSelfLoop(st *State, a int32, typ graph.EventType, d float64) {
	pa := st.P[a]
	if typ == graph.Insert {
		if d == 1 {
			return // dangling → explicit self-loop: P̃ unchanged
		}
		pa *= d / (d - 1)
		st.setP(a, pa)
		st.addR(a, -pa/d)
	} else {
		if d == 0 {
			return // explicit self-loop → dangling: P̃ unchanged
		}
		pa *= d / (d + 1)
		st.setP(a, pa)
		st.addR(a, pa/d)
	}
}

func (st *State) setP(u int32, v float64) {
	if v == 0 {
		delete(st.P, u)
	} else {
		st.P[u] = v
		st.mark(u)
	}
	st.Touched = append(st.Touched, u)
}

func (st *State) addR(u int32, delta float64) {
	nv := st.R[u] + delta
	if nv == 0 {
		delete(st.R, u)
	} else {
		st.R[u] = nv
		st.mark(u)
	}
	st.dirtyR = append(st.dirtyR, u)
}

// ResidueL1 returns Σ|r|, an upper bound on the pointwise estimate error
// (|p(u) − π(u)| ≤ Σ_v |r(v)| because every π_v(u) ≤ 1).
func (st *State) ResidueL1() float64 {
	var s float64
	for _, r := range st.R {
		s += abs(r)
	}
	return s
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
