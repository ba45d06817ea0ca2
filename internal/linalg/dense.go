// Package linalg provides the dense linear-algebra kernels used by every
// SVD in this repository: a row-major dense matrix type, matrix products,
// Householder QR, a cyclic Jacobi symmetric eigensolver, and exact thin
// truncated SVD (via the Gram matrix of the smaller side, with a one-sided
// Jacobi SVD available for cross-validation).
//
// The package depends only on the stdlib and the internal/par worker
// primitives. The matrices factored exactly by Tree-SVD are |S|×(k·d)
// with |S| in the low thousands and k·d around one thousand, so O(n³)
// kernels with good constants are sufficient — the kernels in kernels.go
// are cache-blocked, unrolled for instruction-level parallelism, and
// accept an optional worker budget (see the W-suffixed variants).
package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %d×%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseData wraps data (not copied) as an r×c matrix.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d != %d×%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// At returns the (i,j) element.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i,j) element.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense { return transposeInto(NewDense(m.Cols, m.Rows), m) }

// transposeInto writes mᵀ into dst, which must be m.Cols×m.Rows and must
// not alias m, and returns dst.
func transposeInto(dst, m *Dense) *Dense {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(shapeErr("transposeInto", dst.Rows, dst.Cols, m.Cols, m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.Data[j*m.Rows+i] = v
		}
	}
	return dst
}

// shapeErr formats the panic message for a dimension mismatch.
func shapeErr(op string, ar, ac, br, bc int) string {
	return fmt.Sprintf("linalg: %s shape mismatch %d×%d · %d×%d", op, ar, ac, br, bc)
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation avoids overflow/underflow for extreme values.
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 { return Norm2(m.Data) }

// Add returns a+b.
func Add(a, b *Dense) *Dense {
	mustSameShape("Add", a, b)
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Sub returns a−b.
func Sub(a, b *Dense) *Dense {
	mustSameShape("Sub", a, b)
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

func mustSameShape(op string, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: %s shape mismatch %d×%d vs %d×%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// HCat horizontally concatenates the given matrices (all with equal Rows).
func HCat(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	r := ms[0].Rows
	c := 0
	for _, m := range ms {
		if m.Rows != r {
			panic(fmt.Sprintf("linalg: HCat row mismatch %d vs %d", m.Rows, r))
		}
		c += m.Cols
	}
	out := NewDense(r, c)
	for i := 0; i < r; i++ {
		orow := out.Row(i)
		off := 0
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// SliceCols returns the column range [lo,hi) as a new matrix.
func (m *Dense) SliceCols(lo, hi int) *Dense {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("linalg: SliceCols [%d,%d) out of 0..%d", lo, hi, m.Cols))
	}
	out := NewDense(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// MulDiag scales column j of m by d[j], in place, and returns m.
func (m *Dense) MulDiag(d []float64) *Dense {
	if len(d) != m.Cols {
		panic(fmt.Sprintf("linalg: MulDiag length %d != cols %d", len(d), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= d[j]
		}
	}
	return m
}

// MaxAbsDiff returns the largest elementwise absolute difference.
func MaxAbsDiff(a, b *Dense) float64 {
	mustSameShape("MaxAbsDiff", a, b)
	var d float64
	for i, v := range a.Data {
		if x := math.Abs(v - b.Data[i]); x > d {
			d = x
		}
	}
	return d
}
