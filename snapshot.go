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
	"github.com/tree-svd/treesvd/internal/par"
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

	// parts holds the frozen root factorization and proximity rows of
	// every shard, in subset row order (one part when unsharded). With one
	// part, x and root are frozen at publish; with several they are
	// materialized at most once by mergeOnce: the coordinator merge above
	// the shard boundary runs lazily, on the first read that needs global
	// factors.
	parts     []snapPart
	rank      int // Config.Dim, the merge truncation rank
	workers   int // resolved worker budget for the lazy merge
	mergeOnce sync.Once

	// y is the right embedding Ṽ√Σ, materialized at most once per
	// snapshot, by the first RightEmbedding call on this version;
	// Recommend never reads it. yComputes counts materializations
	// (observable by tests: it must never exceed 1).
	yOnce     sync.Once
	y         *linalg.Dense
	yComputes atomic.Int32
}

// snapPart is one shard's contribution to a snapshot: its frozen root
// factorization and proximity rows, plus the subset row range they cover.
type snapPart struct {
	root   *linalg.SVDResult
	m      *sparse.CSR
	lo, hi int
}

// ensureMerged materializes the global factors of a sharded snapshot
// exactly once: per-shard projections W_i = M_iᵀU_i and the coordinator
// merge above the shard boundary. Unsharded snapshots are published with
// x/root already frozen, so this is a no-op for them.
func (s *Snapshot) ensureMerged() {
	if len(s.parts) == 1 {
		return
	}
	s.mergeOnce.Do(func() {
		roots := make([]*linalg.SVDResult, len(s.parts))
		ws := make([]*linalg.Dense, len(s.parts))
		for i, p := range s.parts {
			roots[i] = p.root
			ws[i] = p.m.TMulDenseW(p.root.U, s.workers)
		}
		mr, err := core.MergeShardRoots(roots, ws, s.rank, s.workers)
		if err != nil {
			// Shapes come from the publishing embedder; a mismatch is a
			// programming error, not a runtime condition.
			panic(err)
		}
		s.root = mr.Root
		s.x = mr.Root.USqrtS()
	})
}

// rootSVD returns the snapshot's (merged) root factorization.
func (s *Snapshot) rootSVD() *linalg.SVDResult {
	s.ensureMerged()
	return s.root
}

// xMat returns the snapshot's (merged) subset embedding X = U√Σ.
func (s *Snapshot) xMat() *linalg.Dense {
	s.ensureMerged()
	return s.x
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

// Spectrum returns the singular values of this snapshot's root
// factorization, descending (a copy; the snapshot stays immutable).
func (s *Snapshot) Spectrum() []float64 { return append([]float64(nil), s.rootSVD().S...) }

// Embedding returns the |S|×d subset embedding X = U√Σ of this snapshot
// as a row-major matrix: row i embeds Subset()[i].
func (s *Snapshot) Embedding() [][]float64 { return toRows(s.xMat()) }

// RightEmbedding returns the n×d right-factor embedding Y = Ṽ√Σ of this
// snapshot (row v embeds graph node v). Y is computed by the first call
// on a snapshot and cached for later ones; Recommend does not need it, so
// a snapshot that only serves recommendations never holds the matrix.
func (s *Snapshot) RightEmbedding() [][]float64 { return toRows(s.right()) }

// right materializes Y = Σ^{-1/2}·Uᵀ·M at most once (Theorem 3.2's
// recovery of the right factor from the frozen proximity matrix), at
// O(nnz·d): M's rows are partitioned over the parts, so Y is the sum of
// each part's recovery against its own rows of the (merged) U.
func (s *Snapshot) right() *linalg.Dense {
	s.yOnce.Do(func() {
		s.yComputes.Add(1)
		root := s.rootSVD()
		d := root.U.Cols
		for _, p := range s.parts {
			up := linalg.NewDenseData(p.hi-p.lo, d, root.U.Data[p.lo*d:p.hi*d])
			yp := core.RightEmbeddingOfW(&linalg.SVDResult{U: up, S: root.S}, p.m, s.workers)
			if s.y == nil {
				s.y = yp
				continue
			}
			for i, v := range yp.Data {
				s.y.Data[i] += v
			}
		}
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
// read, with nothing to build first (DESIGN.md §5). It is the one scoring
// formula of a snapshot, sharded or not: the same pinned snapshot returns
// bit-identical results on every call. Against dot(X[s], Y[v]) from
// Embedding/RightEmbedding the scores agree to rounding, not bit for bit.
func (s *Snapshot) Recommend(src int32, k int) ([]Recommendation, error) {
	if k <= 0 {
		return nil, &InvalidKError{K: k}
	}
	row, ok := s.rowOf[src]
	if !ok {
		return nil, &NotInSubsetError{Node: src, Subset: len(s.subset)}
	}
	root := s.rootSVD()
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

	cols := s.parts[0].m.Cols
	buf := scorePool.Get().(*[]float64)
	if cap(*buf) < cols {
		*buf = make([]float64, cols)
	}
	scores := (*buf)[:cols]
	clear(scores)
	for _, p := range s.parts {
		m := p.m
		for i := 0; i < m.Rows; i++ {
			w := dot(us, root.U.Row(p.lo+i))
			vals := m.Val[m.RowPtr[i]:m.RowPtr[i+1]]
			for q, c := range m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]] {
				scores[c] += w * vals[q]
			}
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
// snapshot and publishes it. Caller holds e.mu; every shard's tree must
// be built. Proximity rows are captured as per-shard CSR copies (the
// DynRows keep mutating afterwards; the copy is two appends per stored
// cell, no sort) and each subset node's exclusion list — itself and its
// out-neighbors, sorted — is copied out of the graph for the same reason,
// all lists into one array. An unsharded embedder's one part is its
// global factorization, frozen here; a sharded one defers the coordinator
// merge to the first global read.
func (e *Embedder) publishLocked() {
	g := e.g
	excluded, off := exclusionLists(g, e.subset)
	snap := &Snapshot{
		version:     e.version.Add(1),
		subset:      e.subset,
		rowOf:       e.rowOf,
		excluded:    excluded,
		excludedOff: off,
		numNodes:    g.NumNodes(),
	}
	snap.parts = make([]snapPart, len(e.shards))
	for i, s := range e.shards {
		snap.parts[i] = snapPart{root: s.tree.Root(), m: s.prox.M.ToCSR(), lo: s.lo, hi: s.hi}
		ts := s.tree.Stats()
		snap.stats.Level1Rebuilt += ts.Level1Rebuilt
		snap.stats.Skipped += ts.Skipped
		snap.stats.UpperRebuilt += ts.UpperRebuilt
	}
	if len(e.shards) == 1 {
		snap.root = snap.parts[0].root
		snap.x = snap.root.USqrtS()
	} else {
		snap.rank = e.cfg.Dim
		snap.workers = par.Workers(e.cfg.Workers)
	}
	e.snap.Store(snap)
	e.met.snapshots.Inc()
	e.met.lastPublishNanos.Set(time.Now().UnixNano())
}
