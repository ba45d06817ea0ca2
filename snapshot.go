package treesvd

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
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
	m       *sparse.CSR // proximity matrix frozen at publish time (unsharded)
	// excluded[excludedOff[i]:excludedOff[i+1]] lists the nodes Recommend
	// never returns for subset row i: the source and its out-neighbors at
	// publish time, ascending without duplicates, all rows in one backing
	// array.
	excluded    []int32
	excludedOff []int32
	stats       Stats
	// numNodes is the graph's node count at publish time. The right
	// embedding is MaxNodes rows wide, so candidate iteration must stop
	// here: rows past it are zero-score placeholders for ids that did not
	// exist yet (ISSUE 3, ghost recommendations).
	numNodes int

	// parts holds the frozen per-shard factorizations of a sharded
	// embedder (nil when unsharded). x, root and y are then materialized
	// at most once by mergeOnce: the coordinator merge above the shard
	// boundary runs lazily, on the first read that needs global factors.
	parts     []snapPart
	rank      int // Config.Dim, the merge truncation rank
	workers   int // resolved worker budget for the lazy merge
	mergeOnce sync.Once

	// y is the right embedding Ṽ√Σ, materialized at most once per
	// snapshot on first use and reused by every later RightEmbedding/
	// Recommend on this version. yComputes counts materializations
	// (observable by tests: it must never exceed 1).
	yOnce     sync.Once
	y         *linalg.Dense
	yComputes atomic.Int32
}

// snapPart is one shard's contribution to a sharded snapshot: its frozen
// root factorization and proximity rows, plus the subset row range they
// cover.
type snapPart struct {
	root   *linalg.SVDResult
	m      *sparse.CSR
	lo, hi int
}

// ensureMerged materializes the global factors of a sharded snapshot
// exactly once: per-shard projections W_i = M_iᵀU_i, the coordinator
// merge above the shard boundary, and (in the same pass, while the
// projections are in hand) the right embedding. Unsharded snapshots are
// published with x/root already frozen, so this is a no-op for them.
func (s *Snapshot) ensureMerged() {
	if s.parts == nil {
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
		s.yComputes.Add(1)
		s.y = mr.RightEmbedding(ws, s.workers)
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
// snapshot (row v embeds graph node v). Y is computed once per snapshot
// and cached; repeated calls (and Recommend) reuse it.
func (s *Snapshot) RightEmbedding() [][]float64 { return toRows(s.right()) }

// right materializes Y = Σ^{-1/2}·Uᵀ·M at most once (Theorem 3.2's
// recovery of the right factor from the frozen proximity matrix). For
// sharded snapshots Y falls out of the coordinator merge instead.
func (s *Snapshot) right() *linalg.Dense {
	if s.parts != nil {
		s.ensureMerged()
		return s.y
	}
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

// recHeap is a min-heap keyed by (Score asc, Node desc): the root is the
// weakest kept candidate, so top-k selection peeks and replaces it in
// O(log k) instead of re-sorting the slice on every improvement.
type recHeap []Recommendation

func (h recHeap) Len() int { return len(h) }
func (h recHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Node > h[j].Node
}
func (h recHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *recHeap) Push(x interface{}) { *h = append(*h, x.(Recommendation)) }
func (h *recHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// scanTopK scores candidates v ∈ [lo, hi) against xs and keeps the top k
// under the (score desc, node asc) total order. Ascending iteration plus
// strict-greater replacement keeps the smallest node ids among ties, so
// the returned heap holds exactly the range's top k under that order —
// which makes per-range results mergeable without losing exactness.
// exclude lists the nodes to skip in ascending order; a cursor walks it
// beside the candidate scan, so skipping costs a compare per candidate
// instead of a hash probe.
func scanTopK(xs []float64, y *linalg.Dense, lo, hi int, exclude []int32, k int) recHeap {
	top := make(recHeap, 0, k)
	next, _ := slices.BinarySearch(exclude, int32(lo))
	for v := lo; v < hi; v++ {
		for next < len(exclude) && exclude[next] < int32(v) {
			next++
		}
		if next < len(exclude) && exclude[next] == int32(v) {
			continue
		}
		score := dot(xs, y.Row(v))
		switch {
		case len(top) < k:
			heap.Push(&top, Recommendation{Node: int32(v), Score: score})
		case score > top[0].Score:
			top[0] = Recommendation{Node: int32(v), Score: score}
			heap.Fix(&top, 0)
		}
	}
	return top
}

// mergeTopK gathers per-range top-k heaps into one ranked result:
// descending score, ties by ascending node id — the same order a single
// full scan produces.
func mergeTopK(tops []recHeap, k int) []Recommendation {
	var all []Recommendation
	for _, t := range tops {
		all = append(all, t...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

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
// On a sharded snapshot the scan scatters across contiguous candidate
// ranges (one per shard, scored in parallel under the snapshot's worker
// budget) and gathers the per-range top-k heaps into one ranked merge;
// the result is provably identical to the single full scan.
func (s *Snapshot) Recommend(src int32, k int) ([]Recommendation, error) {
	if k <= 0 {
		return nil, &InvalidKError{K: k}
	}
	row, ok := s.rowOf[src]
	if !ok {
		return nil, &NotInSubsetError{Node: src, Subset: len(s.subset)}
	}
	if s.rootSVD().Rank() == 0 {
		return nil, fmt.Errorf("treesvd: empty factorization")
	}
	y := s.right()
	xs := s.xMat().Row(row)
	exclude := s.excluded[s.excludedOff[row]:s.excludedOff[row+1]]
	// y has MaxNodes rows; only the first numNodes are real nodes of this
	// snapshot's graph — the rest would surface as zero-score ghosts.
	limit := min(y.Rows, s.numNodes)
	if s.parts == nil {
		return mergeTopK([]recHeap{scanTopK(xs, y, 0, limit, exclude, k)}, k), nil
	}
	ranges := core.ShardRanges(limit, len(s.parts))
	tops := make([]recHeap, len(ranges))
	par.For(len(ranges), s.workers, func(i int) {
		tops[i] = scanTopK(xs, y, ranges[i][0], ranges[i][1], exclude, k)
	})
	return mergeTopK(tops, k), nil
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
// all lists into one array. An unsharded embedder freezes its factors
// directly; a sharded one freezes the per-shard parts and defers the
// coordinator merge to the first global read.
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
	if len(e.shards) == 1 {
		s := e.shards[0]
		root := s.tree.Root()
		ts := s.tree.Stats()
		snap.x = root.USqrtS()
		snap.root = root
		snap.m = s.prox.M.ToCSR()
		snap.stats = Stats{
			Level1Rebuilt: ts.Level1Rebuilt, Level1Updated: ts.Level1Updated,
			Skipped: ts.Skipped, UpperRebuilt: ts.UpperRebuilt,
		}
	} else {
		snap.parts = make([]snapPart, len(e.shards))
		snap.rank = e.cfg.Dim
		snap.workers = par.Workers(e.cfg.Workers)
		for i, s := range e.shards {
			snap.parts[i] = snapPart{root: s.tree.Root(), m: s.prox.M.ToCSR(), lo: s.lo, hi: s.hi}
			ts := s.tree.Stats()
			snap.stats.Level1Rebuilt += ts.Level1Rebuilt
			snap.stats.Level1Updated += ts.Level1Updated
			snap.stats.Skipped += ts.Skipped
			snap.stats.UpperRebuilt += ts.UpperRebuilt
		}
	}
	e.snap.Store(snap)
	e.met.snapshots.Inc()
	e.met.lastPublishNanos.Set(time.Now().UnixNano())
}
