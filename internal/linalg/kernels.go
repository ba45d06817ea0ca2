package linalg

import "github.com/tree-svd/treesvd/internal/par"

// This file holds the matrix-product kernels of the package, one entry
// point per operation (MulW, MulTW, TMulW, GramW), each taking a
// worker budget; callers that want a serial product pass 1. Every
// kernel ends in one of three inner loops, so there is a single code
// path to verify.
//
// Design:
//
//   - Row-panel parallelism. Every kernel partitions its *output* rows
//     into contiguous panels via par.ForChunks, so workers never write
//     the same cache line and goroutine dispatch is amortized over whole
//     panels. Because each output element is produced by exactly one
//     panel and the reduction order inside a panel is fixed, every dense
//     kernel is bit-for-bit deterministic for any worker count.
//   - Tiling. MulW blocks over the reduction dimension (tileK rows of b)
//     and the output columns (tileJ) so the streamed b-panel stays
//     L2-resident and the destination stripe stays in L1 while it is
//     reused across the k-tile.
//   - Inner loops. Every kernel ends in one of three loops: Dot (four
//     independent accumulators, since a serial dot product is
//     latency-bound on the FP add chain), Axpy, and axpy2, which the
//     k-loops of MulW/TMulW/GramW use to fold two reduction rows per pass
//     over the destination stripe. On amd64 the three are SSE2 assembly
//     (kernels_amd64.s), two float64 lanes per instruction; elsewhere
//     they are the Go loops below (kernels_other.go). The two are
//     bit-identical: each lane performs exactly the IEEE multiplies and
//     adds of the Go loop, in the same association, with no FMA (the Go
//     loops round every product with an explicit float64 conversion,
//     which the compiler may not fuse). TestKernelsMatchGeneric holds
//     the assembly to the Go loops bit for bit.
//
// parMinFlops gates goroutine dispatch: products smaller than this run
// serially even when a budget is offered, so tiny merge nodes and test
// matrices never pay scheduling overhead.

const (
	tileK = 64  // reduction rows per panel; tileK×tileJ b-panel ≈ 256 KB
	tileJ = 512 // output columns per tile; one 4 KB dst stripe stays in L1
)

// parMinFlops is a variable only so tests can lower it to drive the
// parallel paths on small matrices; production code treats it as const.
var parMinFlops = 1 << 18

// kernelWorkers resolves the effective worker count for a kernel with n
// partitionable output rows and roughly flops multiply-adds.
func kernelWorkers(w, n, flops int) int {
	w = par.Workers(w)
	if flops < parMinFlops {
		return 1
	}
	return min(w, n)
}

// dotGeneric is the portable Dot: four independent stride-4
// accumulators break the floating-point add latency chain, the tail goes
// into s0, and the combine is (s0+s2)+(s1+s3). The summation order
// therefore differs from a naive left-to-right loop by O(ε‖a‖‖b‖). Each
// product is an explicit float64 conversion, which the Go spec forbids
// fusing into an FMA, so the result is the same on every GOARCH and equal
// to dotSSE2's.
func dotGeneric(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i] * b[i])
	}
	return (s0 + s2) + (s1 + s3)
}

// axpyGeneric is the portable Axpy: dst[i] += a·x[i], each element on
// its own, with the product rounded before the add (no FMA).
func axpyGeneric(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] += float64(a * x[i])
	}
}

// axpy2Generic is the portable axpy2: dst[i] += a0·x0[i] + a1·x1[i],
// associated as dst[i] + (a0·x0[i] + a1·x1[i]), every product rounded
// (no FMA). One pass over dst halves the store traffic of two Axpy calls.
func axpy2Generic(dst []float64, a0 float64, x0 []float64, a1 float64, x1 []float64) {
	x0 = x0[:len(dst)]
	x1 = x1[:len(dst)]
	for i := range dst {
		dst[i] += float64(a0*x0[i]) + float64(a1*x1[i])
	}
}

// axpyPair adds rows k and k+1 (when present) of b, scaled by a0/a1, into
// dst — the shared two-row inner step of MulW, TMulW and GramW.
func axpyPair(dst []float64, a0 float64, x0 []float64, a1 float64, x1 []float64) {
	switch {
	case a0 == 0 && a1 == 0:
	case a1 == 0:
		Axpy(dst, a0, x0)
	case a0 == 0:
		Axpy(dst, a1, x1)
	default:
		axpy2(dst, a0, x0, a1, x1)
	}
}

// MulW returns a·b using up to workers goroutines over row panels of a.
// The result is identical for every worker count.
func MulW(a, b *Dense, workers int) *Dense {
	if a.Cols != b.Rows {
		panic(shapeErr("MulW", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	mulInto(out, a, b, workers)
	return out
}

// mulInto accumulates a·b into out (which must be zeroed, shape-checked).
func mulInto(out, a, b *Dense, workers int) {
	r, k, n := a.Rows, a.Cols, b.Cols
	if r == 0 || k == 0 || n == 0 {
		return
	}
	w := kernelWorkers(workers, r, r*k*n)
	par.ForChunks(r, w, func(lo, hi int) { mulPanel(out, a, b, lo, hi) })
}

// mulPanel computes out[rlo:rhi] += a[rlo:rhi]·b with k/j tiling.
func mulPanel(out, a, b *Dense, rlo, rhi int) {
	kk, n := a.Cols, b.Cols
	for kb := 0; kb < kk; kb += tileK {
		kh := min(kb+tileK, kk)
		for jb := 0; jb < n; jb += tileJ {
			jh := min(jb+tileJ, n)
			for i := rlo; i < rhi; i++ {
				arow := a.Row(i)
				orow := out.Row(i)[jb:jh]
				k := kb
				for ; k+1 < kh; k += 2 {
					axpyPair(orow, arow[k], b.Row(k)[jb:jh], arow[k+1], b.Row(k + 1)[jb:jh])
				}
				if k < kh {
					if av := arow[k]; av != 0 {
						Axpy(orow, av, b.Row(k)[jb:jh])
					}
				}
			}
		}
	}
}

// MulTW returns a·bᵀ using up to workers goroutines over row panels of a.
// The result is identical for every worker count.
func MulTW(a, b *Dense, workers int) *Dense {
	if a.Cols != b.Cols {
		panic(shapeErr("MulTW", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Rows)
	w := kernelWorkers(workers, a.Rows, a.Rows*a.Cols*b.Rows)
	par.ForChunks(a.Rows, w, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := range orow {
				orow[j] = Dot(arow, b.Row(j))
			}
		}
	})
	return out
}

// TMulW returns aᵀ·b using up to workers goroutines over panels of the
// output rows (= columns of a). Each panel accumulates over the shared
// rows of a and b in fixed ascending order, so the result is identical
// for every worker count.
func TMulW(a, b *Dense, workers int) *Dense {
	if a.Rows != b.Rows {
		panic(shapeErr("TMulW", a.Cols, a.Rows, b.Rows, b.Cols))
	}
	out := NewDense(a.Cols, b.Cols)
	if a.Rows == 0 || a.Cols == 0 || b.Cols == 0 {
		return out
	}
	w := kernelWorkers(workers, a.Cols, a.Rows*a.Cols*b.Cols)
	par.ForChunks(a.Cols, w, func(ilo, ihi int) {
		kk := a.Rows
		k := 0
		for ; k+1 < kk; k += 2 {
			ar0, ar1 := a.Row(k), a.Row(k+1)
			br0, br1 := b.Row(k), b.Row(k+1)
			for i := ilo; i < ihi; i++ {
				axpyPair(out.Row(i), ar0[i], br0, ar1[i], br1)
			}
		}
		if k < kk {
			arow, brow := a.Row(k), b.Row(k)
			for i := ilo; i < ihi; i++ {
				if av := arow[i]; av != 0 {
					Axpy(out.Row(i), av, brow)
				}
			}
		}
	})
	return out
}

// GramW returns aᵀ·a, exploiting symmetry, using up to workers
// goroutines over panels of the output rows. Only the upper triangle is
// computed (then mirrored), and the result is identical for every worker
// count.
func GramW(a *Dense, workers int) *Dense {
	out := NewDense(a.Cols, a.Cols)
	gramInto(out, a, workers)
	return out
}

// gramInto accumulates aᵀ·a into out (which must be a zeroed n×n matrix).
func gramInto(out, a *Dense, workers int) {
	n := a.Cols
	if n == 0 || a.Rows == 0 {
		return
	}
	w := kernelWorkers(workers, n, a.Rows*n*n/2)
	par.ForChunks(n, w, func(ilo, ihi int) {
		kk := a.Rows
		k := 0
		for ; k+1 < kk; k += 2 {
			r0, r1 := a.Row(k), a.Row(k+1)
			for i := ilo; i < ihi; i++ {
				axpyPair(out.Row(i)[i:], r0[i], r0[i:], r1[i], r1[i:])
			}
		}
		if k < kk {
			row := a.Row(k)
			for i := ilo; i < ihi; i++ {
				if vi := row[i]; vi != 0 {
					Axpy(out.Row(i)[i:], vi, row[i:])
				}
			}
		}
	})
	mirrorUpper(out)
}

// gramTInto accumulates a·aᵀ into out (which must be a zeroed n×n matrix).
func gramTInto(out, a *Dense, workers int) {
	n := a.Rows
	if n == 0 || a.Cols == 0 {
		return
	}
	w := kernelWorkers(workers, n, n*n*a.Cols/2)
	par.ForChunks(n, w, func(ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			ri := a.Row(i)
			orow := out.Row(i)
			for j := i; j < n; j++ {
				orow[j] = Dot(ri, a.Row(j))
			}
		}
	})
	mirrorUpper(out)
}

// mirrorUpper copies the upper triangle of a square matrix onto the lower.
func mirrorUpper(m *Dense) {
	n := m.Cols
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Data[j*n+i] = m.Data[i*n+j]
		}
	}
}
