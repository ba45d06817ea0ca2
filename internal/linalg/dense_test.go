package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// identity returns the n×n identity matrix.
func identity(n int) *Dense {
	out := NewDense(n, n)
	for i := 0; i < n; i++ {
		out.Data[i*n+i] = 1
	}
	return out
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// gramT returns a·aᵀ through gramTInto, the kernel behind SVDTruncW's
// wide route.
func gramT(a *Dense, workers int) *Dense {
	out := NewDense(a.Rows, a.Rows)
	gramTInto(out, a, workers)
	return out
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 7, 5)
	got := MulW(a, identity(5), 1)
	if MaxAbsDiff(a, got) != 0 {
		t.Fatalf("A·I != A, max diff %g", MaxAbsDiff(a, got))
	}
	got = MulW(identity(7), a, 1)
	if MaxAbsDiff(a, got) != 0 {
		t.Fatalf("I·A != A")
	}
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 6, 4)
	b := randDense(rng, 4, 9)
	got := MulW(a, b, 1)
	want := NewDense(6, 9)
	for i := 0; i < 6; i++ {
		for j := 0; j < 9; j++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("Mul mismatch vs naive: %g", d)
	}
}

func TestMulTAndTMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 5, 7)
	b := randDense(rng, 6, 7)
	if d := MaxAbsDiff(MulTW(a, b, 1), MulW(a, b.T(), 1)); d > 1e-12 {
		t.Fatalf("MulT != A·Bᵀ: %g", d)
	}
	c := randDense(rng, 5, 4)
	if d := MaxAbsDiff(TMulW(a, c, 1), MulW(a.T(), c, 1)); d > 1e-12 {
		t.Fatalf("TMul != Aᵀ·C: %g", d)
	}
}

func TestGram(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 8, 5)
	if d := MaxAbsDiff(GramW(a, 1), MulW(a.T(), a, 1)); d > 1e-12 {
		t.Fatalf("Gram != AᵀA: %g", d)
	}
	if d := MaxAbsDiff(gramT(a, 1), MulTW(a, a, 1)); d > 1e-12 {
		t.Fatalf("GramT != AAᵀ: %g", d)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(10)
		c := 1 + rng.Intn(10)
		a := randDense(rng, r, c)
		return MaxAbsDiff(a, a.T().T()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHCatSliceColsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		c1 := 1 + rng.Intn(6)
		c2 := 1 + rng.Intn(6)
		a := randDense(rng, r, c1)
		b := randDense(rng, r, c2)
		cat := HCat(a, b)
		return MaxAbsDiff(cat.SliceCols(0, c1), a) == 0 &&
			MaxAbsDiff(cat.SliceCols(c1, c1+c2), b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2([3,4]) = %g, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %g, want 0", got)
	}
	// Overflow safety: components near math.MaxFloat64's sqrt.
	big := 1e200
	if got := Norm2([]float64{big, big}); math.IsInf(got, 1) {
		t.Fatalf("Norm2 overflowed on large components")
	}
}

func TestFrobNormMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 6, 6)
	var ss float64
	for _, v := range a.Data {
		ss += v * v
	}
	if d := math.Abs(a.FrobNorm() - math.Sqrt(ss)); d > 1e-12 {
		t.Fatalf("FrobNorm mismatch: %g", d)
	}
}

func TestAddSubScale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(rng, 4, 4)
	b := randDense(rng, 4, 4)
	if d := MaxAbsDiff(Sub(Add(a, b), b), a); d > 1e-12 {
		t.Fatalf("(a+b)−b != a: %g", d)
	}
	c := a.Clone().Scale(2)
	if d := MaxAbsDiff(c, Add(a, a)); d > 1e-12 {
		t.Fatalf("2a != a+a: %g", d)
	}
}

func TestMulDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 3, 4)
	d := []float64{1, 2, 0.5, -1}
	got := a.Clone().MulDiag(d)
	diag := NewDense(4, 4)
	for i, v := range d {
		diag.Set(i, i, v)
	}
	if x := MaxAbsDiff(got, MulW(a, diag, 1)); x > 1e-12 {
		t.Fatalf("MulDiag != A·diag(d): %g", x)
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MulW(NewDense(2, 3), NewDense(4, 2), 1)
}
