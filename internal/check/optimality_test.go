package check

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// TestOptimality: the Gram route's optimal error equals the exact SVD's
// tail, the exact top-d basis scores 1 and any other basis more, and an
// |S| above OptimalityMaxRows is refused by name.
func TestOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const rows, cols, d = 24, 90, 5
	b := sparse.NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.3 {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	m := b.Build()
	exact := linalg.SVDTruncW(m.ToDense(), d, 1)
	want := exact.TailEnergy(m.FrobNorm(), d) / m.FrobNorm()
	opt, ratio, err := Optimality(m, exact.U, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt-want) > 1e-10 || math.Abs(ratio-1) > 1e-9 {
		t.Fatalf("exact basis: opt_rel_err %g (SVD tail %g), recon_over_opt %g", opt, want, ratio)
	}
	u := linalg.NewDense(rows, d)
	for i := range u.Data {
		u.Data[i] = rng.NormFloat64()
	}
	if _, ratio, _ := Optimality(m, linalg.OrthonormalizeW(u, 1), d); ratio <= 1.01 {
		t.Fatalf("random basis scored recon_over_opt %g", ratio)
	}
	big := sparse.NewBuilder(OptimalityMaxRows+1, 3).Build()
	if _, _, err := Optimality(big, linalg.NewDense(OptimalityMaxRows+1, d), d); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("|S| = %d: Optimality = %v, want a refusal", OptimalityMaxRows+1, err)
	}
}
