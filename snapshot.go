package treesvd

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// Snapshot is one immutable, fully consistent version of the embedding
// state, published atomically by New/ApplyEvents/Rebuild. All methods are
// safe for concurrent use from any number of goroutines, and a snapshot
// stays valid and numerically unchanged forever — later updates publish
// new snapshots instead of mutating old ones. Hold one to serve a batch
// of reads (several Recommend calls, an Embedding plus a RightEmbedding)
// against a single consistent version while updates proceed underneath.
type Snapshot struct {
	version uint64
	subset  []int32       // shared with Embedder; immutable after New
	rowOf   map[int32]int // shared with Embedder; immutable after New
	x       *linalg.Dense // frozen U√Σ
	root    *linalg.SVDResult
	m       *sparse.CSR // frozen proximity matrix
	// pins counts the reads that may still reach m: each read method of
	// the Embedder holds one for its call, and Snapshot takes one for
	// life. A publish recycles the arrays of a retired m only at zero.
	pins *atomic.Int64
	// excluded[excludedOff[i]:excludedOff[i+1]] lists the nodes Recommend
	// never returns for subset row i: the source and its out-neighbors at
	// publish time, ascending without duplicates, all rows in one backing
	// array.
	excluded    []int32
	excludedOff []int32
	stats       Stats
	// numNodes is the graph's node count at publish time. The proximity
	// matrix is MaxNodes columns wide, so candidate iteration must stop
	// here: columns past it are zero-score placeholders for ids that did
	// not exist yet (ISSUE 3, ghost recommendations).
	numNodes int
	// numEdges is the graph's edge count at publish time.
	numEdges int

	// y is the right embedding Ṽ√Σ, materialized at most once per
	// snapshot, by the first RightEmbedding call on this version;
	// Recommend never reads it. yComputes counts materializations
	// (observable by tests: it must never exceed 1).
	yOnce     sync.Once
	y         *linalg.Dense
	yComputes atomic.Int32
}

// Version returns the snapshot's version counter; it increases by one
// with every snapshot the Embedder publishes.
func (s *Snapshot) Version() uint64 { return s.version }

// Subset returns the embedded node ids in row order.
func (s *Snapshot) Subset() []int32 { return append([]int32(nil), s.subset...) }

// Stats returns the factorization work counters of the update that
// published this snapshot.
func (s *Snapshot) Stats() Stats { return s.stats }

// NumNodes returns the graph's node count as of this snapshot's version.
func (s *Snapshot) NumNodes() int { return s.numNodes }

// NumEdges returns the graph's edge count as of this snapshot's version.
func (s *Snapshot) NumEdges() int { return s.numEdges }

// Spectrum returns the singular values of this snapshot's root
// factorization, descending (a copy; the snapshot stays immutable).
func (s *Snapshot) Spectrum() []float64 { return append([]float64(nil), s.root.S...) }

// Embedding returns the |S|×d subset embedding X = U√Σ of this snapshot
// as a row-major matrix: row i embeds Subset()[i].
func (s *Snapshot) Embedding() [][]float64 { return toRows(s.x) }

// EmbeddingRow returns a copy of subset node v's row of Embedding, or a
// *NotInSubsetError when v is not a subset node.
func (s *Snapshot) EmbeddingRow(v int32) ([]float64, error) {
	row, ok := s.rowOf[v]
	if !ok {
		return nil, &NotInSubsetError{Node: v, Subset: len(s.subset)}
	}
	return append([]float64(nil), s.x.Row(row)...), nil
}

// RightEmbedding returns the n×d right-factor embedding Y = Ṽ√Σ of this
// snapshot (row v embeds graph node v). Y is computed by the first call
// on a snapshot and cached for later ones; Recommend does not need it, so
// a snapshot that only serves recommendations never holds the matrix.
func (s *Snapshot) RightEmbedding() [][]float64 { return toRows(s.right()) }

// RightEmbeddingRow returns a copy of row v of the right embedding, the
// same bits as RightEmbedding()[v], without copying the other rows. A
// negative v, or one at or past NumNodes, is a *NodeRangeError.
func (s *Snapshot) RightEmbeddingRow(v int32) ([]float64, error) {
	if n := min(s.numNodes, s.m.Cols); v < 0 || int(v) >= n {
		return nil, &NodeRangeError{Node: v, MaxNodes: n}
	}
	return append([]float64(nil), s.right().Row(int(v))...), nil
}

// right materializes Y = Σ^{-1/2}·Uᵀ·M at most once (Theorem 3.2's
// recovery of the right factor from the frozen proximity matrix), at
// O(nnz·d).
func (s *Snapshot) right() *linalg.Dense {
	s.yOnce.Do(func() {
		s.yComputes.Add(1)
		s.y = core.RightEmbeddingOf(s.root, s.m)
	})
	return s.y
}

func toRows(m *linalg.Dense) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}

// Recommendation is one ranked link candidate.
type Recommendation struct {
	Node  int32
	Score float64
}

// ranksBefore is the result order: descending score, ties by ascending
// node id.
func ranksBefore(a, b Recommendation) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Node < b.Node
}

// scanTopK keeps the top k of the candidates v ∈ [0, len(scores)), node v
// scoring scores[v], and returns them ranked. The kept candidates form a
// binary heap whose root is the weakest, so an improvement replaces it in
// O(log k); ascending iteration plus strict-greater replacement keeps the
// smallest node ids among ties. The heap sifts on the concrete slice, so
// the scan allocates nothing but its result. exclude lists the nodes to
// skip in ascending order (repeats allowed): the scan runs over the gaps
// between them, so skipping costs nothing per candidate.
func scanTopK(scores []float64, exclude []int32, k int) []Recommendation {
	top := make([]Recommendation, 0, min(k, len(scores)))
	for lo, next := 0, 0; lo < len(scores); next++ {
		hi := len(scores)
		if next < len(exclude) {
			hi = min(hi, int(exclude[next]))
		}
		for v := lo; v < hi; v++ {
			switch score := scores[v]; {
			case len(top) < cap(top):
				top = append(top, Recommendation{Node: int32(v), Score: score})
				siftUp(top)
			case score > top[0].Score:
				top[0] = Recommendation{Node: int32(v), Score: score}
				siftDown(top)
			}
		}
		lo = max(lo, hi+1)
	}
	slices.SortFunc(top, func(a, b Recommendation) int {
		if ranksBefore(a, b) {
			return -1
		}
		return 1 // node ids are distinct: no two candidates compare equal
	})
	return top
}

// siftUp restores the weakest-at-root heap after an append.
func siftUp(h []Recommendation) {
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !ranksBefore(h[parent], h[i]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the weakest-at-root heap after the root was replaced.
func siftDown(h []Recommendation) {
	for i := 0; ; {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if child+1 < len(h) && ranksBefore(h[child], h[child+1]) {
			child++
		}
		if !ranksBefore(h[i], h[child]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// scorePool recycles Recommend's score rows (one float per proximity
// column) across reads and snapshots.
var scorePool = sync.Pool{New: func() any { return new([]float64) }}

// Recommend returns the top-k candidate targets for subset node s, ranked
// by the factorization score dot(X[s], Y[v]) — the paper's motivating
// application. Candidates are the nodes that exist as of this snapshot's
// version (ids the MaxNodes headroom reserves but the graph has not
// reached yet are never returned); node s itself and its out-neighbors
// are excluded. Results are ordered by descending score, ties by
// ascending node id.
//
// The k contract: k <= 0 is rejected with a *InvalidKError, and a k
// larger than the candidate set truncates — the result simply holds every
// scored candidate, which may be fewer than k (never an error). A source
// that is not in the embedded subset is rejected with a
// *NotInSubsetError. Both are deterministic input errors (a serving layer
// maps them to HTTP 400 and 404); anything else is a real failure.
//
// The scores are computed from the frozen proximity matrix, not from Y:
// with X = U√Σ and Y = Σ^{-1/2}·Uᵀ·M the √Σ cancels, so the score row is
// (U·Uᵀ·M)[s,:] = wᵀM with w = U·U[s,:]ᵀ — O(|S|·d + nnz(M) + n) per
// read, with nothing to build first (DESIGN.md §5). The same pinned
// snapshot returns bit-identical results on every call. Against
// dot(X[s], Y[v]) from Embedding/RightEmbedding the scores agree to
// rounding, not bit for bit.
func (s *Snapshot) Recommend(src int32, k int) ([]Recommendation, error) {
	if k <= 0 {
		return nil, &InvalidKError{K: k}
	}
	row, ok := s.rowOf[src]
	if !ok {
		return nil, &NotInSubsetError{Node: src, Subset: len(s.subset)}
	}
	root := s.root
	if root.Rank() == 0 {
		return nil, fmt.Errorf("treesvd: empty factorization")
	}
	// Directions with σ = 0 carry no score, as in Y; S is descending, so
	// they are a suffix.
	r := root.Rank()
	for r > 0 && root.S[r-1] <= 0 {
		r--
	}
	us := root.U.Row(row)[:r]

	m := s.m
	cols := m.Cols
	buf := scorePool.Get().(*[]float64)
	if cap(*buf) < cols {
		*buf = make([]float64, cols)
	}
	scores := (*buf)[:cols]
	clear(scores)
	for i := 0; i < m.Rows; i++ {
		w := dot(us, root.U.Row(i))
		vals := m.Val[m.RowPtr[i]:m.RowPtr[i+1]]
		for q, c := range m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]] {
			scores[c] += w * vals[q]
		}
	}
	// The matrix has MaxNodes columns; only the first numNodes are real
	// nodes of this snapshot's graph — the rest would surface as
	// zero-score ghosts.
	exclude := s.excluded[s.excludedOff[row]:s.excludedOff[row+1]]
	recs := scanTopK(scores[:min(cols, s.numNodes)], exclude, k)
	scorePool.Put(buf)
	return recs, nil
}

// exclusionLists returns, for every subset node in row order, the nodes
// Recommend must skip — the node and its current out-neighbors, ascending
// without duplicates — as slices excluded[off[i]:off[i+1]] of one array.
func exclusionLists(g *graph.Graph, subset []int32) (excluded, off []int32) {
	total := len(subset)
	for _, s := range subset {
		total += g.OutDeg(s)
	}
	excluded = make([]int32, 0, total)
	off = make([]int32, 1, len(subset)+1)
	for _, s := range subset {
		start := len(excluded)
		excluded = append(append(excluded, s), g.OutNeighbors(s)...)
		slices.Sort(excluded[start:])
		// The graph rejects parallel edges: only a self-loop repeats s.
		excluded = excluded[:start+len(slices.Compact(excluded[start:]))]
		off = append(off, int32(len(excluded)))
	}
	return excluded, off
}

func dot(a, b []float64) float64 {
	b = b[:len(a)] // one bounds check instead of one per element
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// publishLocked freezes the current pipeline state into a new immutable
// snapshot and publishes it. Caller holds e.mu; the tree must be built.
func (e *Embedder) publishLocked() { e.storeSnapshotLocked(e.buildSnapshotLocked()) }

// buildSnapshotLocked freezes the current pipeline state into a new
// immutable snapshot, which nobody can read until storeSnapshotLocked
// publishes it. Caller holds e.mu; the tree must be built.
// The proximity matrix is captured as a CSR copy, because the DynRow
// keeps mutating afterwards: rows the batches since the last publish
// changed are gathered from the live cells, and the rest are copied
// whole from the previous snapshot's matrix, into the arrays of the
// retired matrix when no read holds a pin on it. Each subset node's exclusion
// list (itself and its out-neighbors, sorted) is copied out of the graph
// for the same reason, all lists into one array, but only when an event
// since then left a subset node; otherwise the previous snapshot's
// arrays still hold. X is shared too while the root factorization is
// the same object.
func (e *Embedder) buildSnapshotLocked() *Snapshot {
	g := e.g
	prev := e.snap.Load()
	var spare *sparse.CSR
	if r := e.retired; r.m != nil && r.pins.Load() == 0 {
		spare = r.m
	}
	// Dropped either way: if this snapshot is never stored, the spare's
	// arrays stay the DynRow's last CSR, which the next build copies from.
	e.retired = retiredMatrix{}
	var excluded, off []int32
	if prev != nil && !e.subsetOutChanged {
		excluded, off = prev.excluded, prev.excludedOff
	} else {
		excluded, off = exclusionLists(g, e.subset)
	}
	root := e.tree.Root()
	var x *linalg.Dense
	if prev != nil && prev.root == root {
		x = prev.x
	} else {
		x = root.USqrtS()
	}
	ts := e.tree.Stats()
	return &Snapshot{
		subset:      e.subset,
		rowOf:       e.rowOf,
		x:           x,
		root:        root,
		m:           e.prox.M.ToCSRInto(spare),
		pins:        new(atomic.Int64),
		excluded:    excluded,
		excludedOff: off,
		stats:       Stats{Level1Rebuilt: ts.Level1Rebuilt, Skipped: ts.Skipped, UpperRebuilt: ts.UpperRebuilt},
		numNodes:    g.NumNodes(),
		numEdges:    g.NumEdges(),
	}
}

// storeSnapshotLocked publishes snap, a snapshot of the current state,
// under the next version, and keeps the matrix and pin count of the one
// it replaces for the next build to recycle. Caller holds e.mu. Until it
// runs, the exclusion lists snap rebuilt are not yet the published ones,
// so subsetOutChanged is cleared only here.
func (e *Embedder) storeSnapshotLocked(snap *Snapshot) {
	snap.version = e.version.Add(1)
	e.subsetOutChanged = false
	if old := e.snap.Swap(snap); old != nil {
		e.retired = retiredMatrix{m: old.m, pins: old.pins}
	}
	e.met.snapshots.Inc()
	e.met.lastPublishNanos.Set(time.Now().UnixNano())
}

// retiredMatrix is the proximity matrix of the snapshot the last publish
// replaced, with that snapshot's pin count; it holds no pointer to the
// snapshot, so the rest of it is garbage once no caller holds it.
type retiredMatrix struct {
	m    *sparse.CSR
	pins *atomic.Int64
}

// pin returns the current snapshot with one more pin on its matrix. A pin
// counts only if the snapshot is still the published one after it is
// taken: once a publish has swapped a snapshot out, no new pin on it
// succeeds, so the pin count the next publish reads is final but for
// releases.
func (e *Embedder) pin() *Snapshot {
	for {
		s := e.snap.Load()
		s.pins.Add(1)
		if e.snap.Load() == s {
			return s
		}
		s.pins.Add(-1)
	}
}
