package linalg

import "github.com/tree-svd/treesvd/internal/par"

// This file holds the matrix-product kernels of the package, in two
// flavors per operation: the historical serial entry point (Mul, MulT,
// TMul, Gram, GramT) and a worker-budgeted variant with a W suffix. All
// variants share one cache-blocked implementation; the serial names are
// just workers=1 calls, so there is a single code path to verify.
//
// Design:
//
//   - Row-panel parallelism. Every kernel partitions its *output* rows
//     into contiguous panels via par.ForChunks, so workers never write
//     the same cache line and goroutine dispatch is amortized over whole
//     panels. Because each output element is produced by exactly one
//     panel and the reduction order inside a panel is fixed, every dense
//     kernel is bit-for-bit deterministic for any worker count.
//   - Tiling. Mul blocks over the reduction dimension (tileK rows of b)
//     and the output columns (tileJ) so the streamed b-panel stays
//     L2-resident and the destination stripe stays in L1 while it is
//     reused across the k-tile.
//   - Instruction-level parallelism. Dot runs four independent
//     accumulators (a serial dot product is latency-bound on the FP add
//     chain); the axpy kernels unroll 4× and the k-loops of Mul/TMul/Gram
//     process two reduction rows per pass (axpy2), halving traffic over
//     the destination stripe.
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

// Dot returns the inner product of equal-length vectors. Four independent
// accumulators break the floating-point add latency chain; the summation
// order therefore differs from a naive left-to-right loop by O(ε‖a‖‖b‖).
func Dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s2) + (s1 + s3)
}

// axpy computes dst += a·x elementwise. Per-element order matches the
// naive loop exactly (no reassociation).
func axpy(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	i := 0
	for ; i+3 < len(dst); i += 4 {
		dst[i] += a * x[i]
		dst[i+1] += a * x[i+1]
		dst[i+2] += a * x[i+2]
		dst[i+3] += a * x[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] += a * x[i]
	}
}

// axpy2 computes dst += a0·x0 + a1·x1 in one pass over dst, halving the
// store traffic of two separate axpy calls.
func axpy2(dst []float64, a0 float64, x0 []float64, a1 float64, x1 []float64) {
	x0 = x0[:len(dst)]
	x1 = x1[:len(dst)]
	for i := range dst {
		dst[i] += a0*x0[i] + a1*x1[i]
	}
}

// axpyPair adds rows k and k+1 (when present) of b, scaled by a0/a1, into
// dst — the shared two-row inner step of Mul, TMul and Gram.
func axpyPair(dst []float64, a0 float64, x0 []float64, a1 float64, x1 []float64) {
	switch {
	case a0 == 0 && a1 == 0:
	case a1 == 0:
		axpy(dst, a0, x0)
	case a0 == 0:
		axpy(dst, a1, x1)
	default:
		axpy2(dst, a0, x0, a1, x1)
	}
}

// Mul returns a·b.
func Mul(a, b *Dense) *Dense { return MulW(a, b, 1) }

// MulW returns a·b using up to workers goroutines over row panels of a.
// The result is identical for every worker count.
func MulW(a, b *Dense, workers int) *Dense {
	if a.Cols != b.Rows {
		panic(shapeErr("Mul", a.Rows, a.Cols, b.Rows, b.Cols))
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
						axpy(orow, av, b.Row(k)[jb:jh])
					}
				}
			}
		}
	}
}

// MulT returns a·bᵀ.
func MulT(a, b *Dense) *Dense { return MulTW(a, b, 1) }

// MulTW returns a·bᵀ using up to workers goroutines over row panels of a.
// The result is identical for every worker count.
func MulTW(a, b *Dense, workers int) *Dense {
	if a.Cols != b.Cols {
		panic(shapeErr("MulT", a.Rows, a.Cols, b.Rows, b.Cols))
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

// TMul returns aᵀ·b.
func TMul(a, b *Dense) *Dense { return TMulW(a, b, 1) }

// TMulW returns aᵀ·b using up to workers goroutines over panels of the
// output rows (= columns of a). Each panel accumulates over the shared
// rows of a and b in fixed ascending order, so the result is identical
// for every worker count.
func TMulW(a, b *Dense, workers int) *Dense {
	if a.Rows != b.Rows {
		panic(shapeErr("TMul", a.Cols, a.Rows, b.Rows, b.Cols))
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
					axpy(out.Row(i), av, brow)
				}
			}
		}
	})
	return out
}

// Gram returns aᵀ·a, exploiting symmetry.
func Gram(a *Dense) *Dense { return GramW(a, 1) }

// GramW returns aᵀ·a using up to workers goroutines over panels of the
// output rows. Only the upper triangle is computed (then mirrored), and
// the result is identical for every worker count.
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
					axpy(out.Row(i)[i:], vi, row[i:])
				}
			}
		}
	})
	mirrorUpper(out)
}

// GramT returns a·aᵀ, exploiting symmetry.
func GramT(a *Dense) *Dense { return GramTW(a, 1) }

// GramTW returns a·aᵀ using up to workers goroutines over panels of the
// output rows. The result is identical for every worker count.
func GramTW(a *Dense, workers int) *Dense {
	out := NewDense(a.Rows, a.Rows)
	gramTInto(out, a, workers)
	return out
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
