package linalg

import (
	"math/bits"
	"sync"

	"github.com/tree-svd/treesvd/internal/obs"
)

// The scratch pool backs the allocation-disciplined hot paths: Tree-SVD
// rebuilds thousands of level-1 blocks per stream (Fig. 13 measures up to
// 3062 rebuilds), and every rebuild needs the same handful of short-lived
// temporaries — the Gaussian sketch, the subspace-iteration ping-pong
// buffers, the projected small matrix, the Gram matrix of an exact SVD,
// and the per-parent concat buffer of a merge. Drawing those from a
// sync.Pool instead of the heap removes the dominant steady-state
// allocations of the update loop.
//
// Ownership rules (documented in DESIGN.md): a pooled matrix is owned by
// the caller from GetDense until PutDense; it must not be retained, and
// no result returned to an outer caller may alias it. Kernels never pool
// their own return values — only explicitly scratch intermediates.
//
// The pool is split by capacity class: class k holds buffers of at least
// 2^k floats, and a request takes from the class of its size rounded up
// to a power of two. In one pool for every size, each buffer would grow
// to the largest request it ever served (a 128 KB merge input, against
// 2–20 KB for most requests), and the pool's victims would count that
// much in the heap after a GC.
var densePools [bits.UintSize]sync.Pool

// poolHits/poolMisses count GetDense calls served from the pool versus
// freshly allocated.
// Process-global like the pool itself; read them via PoolStats.
var poolHits, poolMisses obs.Counter

// PoolStats returns the cumulative GetDense pool hit and miss counts.
// Their ratio is the workspace-reuse rate of the kernel hot paths: a low
// hit rate under steady-state updates means scratch buffers are being
// retained (or PutDense calls are missing) somewhere upstream.
func PoolStats() (hits, misses uint64) {
	return poolHits.Load(), poolMisses.Load()
}

// GetDense returns a zeroed r×c matrix backed by pooled storage. The
// caller must release it with PutDense once no live result aliases it.
func GetDense(r, c int) *Dense {
	n := r * c
	k := bits.Len(uint(max(n, 1) - 1)) // the smallest k with 2^k ≥ n
	v := densePools[k].Get()
	if v == nil {
		poolMisses.Inc()
		return &Dense{Rows: r, Cols: c, Data: make([]float64, n, 1<<k)}
	}
	poolHits.Inc()
	m := v.(*Dense)
	m.Data = m.Data[:n]
	clear(m.Data)
	m.Rows, m.Cols = r, c
	return m
}

// PutDense returns a matrix obtained from GetDense to the pool. Passing
// nil is a no-op; passing a matrix that a live result still references is
// a caller bug (the storage will be recycled under it). A matrix GetDense
// did not make (a kernel's result a caller is done with) is left to the
// GC: kernels make more of them than requests of their size take back, so
// pooling them would pile them up in their class until the next GC.
func PutDense(m *Dense) {
	if m == nil {
		return
	}
	if c := uint(cap(m.Data)); c != 0 && c&(c-1) == 0 {
		densePools[bits.TrailingZeros(c)].Put(m)
	}
}
