//go:build !amd64

package linalg

// Without an assembly port the inner loops are the Go loops of
// kernels.go.

// Dot returns the inner product of equal-length vectors, summed in
// dotGeneric's order: four stride-4 accumulators combined as
// (s0+s2)+(s1+s3). It panics if len(b) < len(a).
func Dot(a, b []float64) float64 { return dotGeneric(a, b) }

// Axpy computes dst += a·x elementwise, each product rounded before the
// add (no FMA). It is the one axpy loop of the module; the sparse
// products call it too. It panics if len(x) < len(dst).
func Axpy(dst []float64, a float64, x []float64) { axpyGeneric(dst, a, x) }

// axpy2 computes dst += a0·x0 + a1·x1 in one pass over dst.
func axpy2(dst []float64, a0 float64, x0 []float64, a1 float64, x1 []float64) {
	axpy2Generic(dst, a0, x0, a1, x1)
}
