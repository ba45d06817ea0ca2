package linalg

// On amd64 the three inner loops run as SSE2 assembly (kernels_amd64.s).
// SSE2 is part of the amd64 baseline, so there is no CPU detection. Each
// wrapper keeps the Go loop's bounds checks and returns early on empty
// input, so the assembly only ever sees n ≥ 1 valid elements.

// Dot returns the inner product of equal-length vectors, summed in
// dotGeneric's order: four stride-4 accumulators combined as
// (s0+s2)+(s1+s3). It panics if len(b) < len(a).
func Dot(a, b []float64) float64 {
	b = b[:len(a)]
	if len(a) == 0 {
		return 0
	}
	return dotSSE2(&a[0], &b[0], len(a))
}

// Axpy computes dst += a·x elementwise, bit-identical to axpyGeneric:
// each product is rounded before the add. It is the one axpy loop of the
// module; the sparse products call it too. It panics if len(x) < len(dst).
func Axpy(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
	if len(dst) == 0 {
		return
	}
	axpySSE2(&dst[0], a, &x[0], len(dst))
}

// axpy2 computes dst += a0·x0 + a1·x1 in one pass over dst,
// bit-identical to axpy2Generic.
func axpy2(dst []float64, a0 float64, x0 []float64, a1 float64, x1 []float64) {
	x0 = x0[:len(dst)]
	x1 = x1[:len(dst)]
	if len(dst) == 0 {
		return
	}
	axpy2SSE2(&dst[0], a0, &x0[0], a1, &x1[0], len(dst))
}

//go:noescape
func dotSSE2(a, b *float64, n int) float64

//go:noescape
func axpySSE2(dst *float64, a float64, x *float64, n int)

//go:noescape
func axpy2SSE2(dst *float64, a0 float64, x0 *float64, a1 float64, x1 *float64, n int)
