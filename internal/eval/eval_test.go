package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
)

func TestMicroF1(t *testing.T) {
	if got := MicroF1([]int{1, 2, 3}, []int{1, 2, 0}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("MicroF1 = %g, want 2/3", got)
	}
	if MicroF1(nil, nil) != 0 {
		t.Fatal("empty MicroF1 not 0")
	}
}

func TestMacroF1PerfectAndWorst(t *testing.T) {
	if got := MacroF1([]int{0, 1, 2}, []int{0, 1, 2}, 3); got != 1 {
		t.Fatalf("perfect MacroF1 = %g", got)
	}
	if got := MacroF1([]int{1, 2, 0}, []int{0, 1, 2}, 3); got != 0 {
		t.Fatalf("all-wrong MacroF1 = %g", got)
	}
}

func TestMacroF1IgnoresAbsentClasses(t *testing.T) {
	// Class 2 never appears in the truth: only classes 0,1 averaged.
	got := MacroF1([]int{0, 1}, []int{0, 1}, 3)
	if got != 1 {
		t.Fatalf("MacroF1 with absent class = %g, want 1", got)
	}
}

func TestTrainTestSplit(t *testing.T) {
	train, test := TrainTestSplit(10, 0.5, 1)
	if len(train) != 5 || len(test) != 5 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatal("duplicate index in split")
		}
		seen[i] = true
	}
	// Deterministic.
	tr2, _ := TrainTestSplit(10, 0.5, 1)
	for i := range train {
		if train[i] != tr2[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestTrainTestSplitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		ratio := rng.Float64()
		train, test := TrainTestSplit(n, ratio, seed)
		return len(train)+len(test) == n && len(train) == int(math.Ceil(ratio*float64(n)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLogRegSeparable(t *testing.T) {
	// Two well-separated Gaussian blobs must be classified near-perfectly.
	rng := rand.New(rand.NewSource(2))
	n := 200
	x := linalg.NewDense(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		mean := -2.0
		if c == 1 {
			mean = 2
		}
		for j := 0; j < 4; j++ {
			x.Set(i, j, mean+0.5*rng.NormFloat64())
		}
	}
	micro, macro := Classify(x, y, 2, 0.5, DefaultLogRegConfig())
	if micro < 0.95 || macro < 0.95 {
		t.Fatalf("separable blobs: micro %g macro %g", micro, macro)
	}
}

func TestLogRegMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, classes := 300, 3
	x := linalg.NewDense(n, 3)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		y[i] = c
		for j := 0; j < 3; j++ {
			v := 0.4 * rng.NormFloat64()
			if j == c {
				v += 3
			}
			x.Set(i, j, v)
		}
	}
	micro, _ := Classify(x, y, classes, 0.7, DefaultLogRegConfig())
	if micro < 0.9 {
		t.Fatalf("one-hot-ish classes: micro %g", micro)
	}
}

func TestLogRegChanceOnNoise(t *testing.T) {
	// Pure noise: accuracy should hover near 1/classes, far from 1.
	rng := rand.New(rand.NewSource(4))
	n := 400
	x := linalg.NewDense(n, 5)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = rng.Intn(4)
		for j := 0; j < 5; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	micro, _ := Classify(x, y, 4, 0.5, DefaultLogRegConfig())
	if micro > 0.45 {
		t.Fatalf("noise classified at %g — leakage?", micro)
	}
}

func buildLPGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for v := int32(0); int(v) < n; v++ {
		for g.OutDeg(v) < 4 {
			u := int32(rng.Intn(n))
			if u != v {
				g.InsertEdge(v, u)
			}
		}
	}
	return g
}

func TestLinkPredSplitInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := buildLPGraph(rng, 40)
	s := []int32{0, 1, 2, 3, 4}
	sp := NewLinkPredSplit(g, s, 0.3, 7)
	if len(sp.PosU) == 0 {
		t.Fatal("no positive test edges sampled")
	}
	if len(sp.PosU) != len(sp.NegU) {
		t.Fatalf("unbalanced test set: %d pos vs %d neg", len(sp.PosU), len(sp.NegU))
	}
	for i := range sp.PosU {
		if sp.TrainGraph.HasEdge(sp.PosU[i], sp.PosV[i]) {
			t.Fatal("positive edge still in train graph")
		}
		if !g.HasEdge(sp.PosU[i], sp.PosV[i]) {
			t.Fatal("positive edge not in the original graph")
		}
	}
	for i := range sp.NegU {
		if g.HasEdge(sp.NegU[i], sp.NegV[i]) {
			t.Fatal("negative pair is an actual edge")
		}
	}
	// No node loses its last out-edge.
	for v := int32(0); int(v) < 40; v++ {
		if g.OutDeg(v) > 0 && sp.TrainGraph.OutDeg(v) == 0 {
			t.Fatalf("node %d orphaned by split", v)
		}
	}
}

func TestLinkPredPrecisionOracle(t *testing.T) {
	// An oracle embedding that scores positives above negatives must get
	// precision 1; an inverted oracle gets 0.
	rng := rand.New(rand.NewSource(6))
	g := buildLPGraph(rng, 30)
	s := []int32{0, 1, 2}
	sp := NewLinkPredSplit(g, s, 0.3, 3)

	// Build left/right factors realizing an arbitrary score function via
	// 1-d embeddings: left row = 1, right row = desired score.
	left := linalg.NewDense(len(s), 1)
	for i := range s {
		left.Set(i, 0, 1)
	}
	right := linalg.NewDense(30, 1)
	posSet := map[int64]bool{}
	for i := range sp.PosU {
		posSet[int64(sp.PosU[i])<<32|int64(sp.PosV[i])] = true
	}
	// Score v high iff it appears as a positive target (ties possible if
	// a node is both a positive and a negative target; craft scores so
	// positives dominate).
	for i := range sp.PosV {
		right.Set(int(sp.PosV[i]), 0, 10)
	}
	for i := range sp.NegV {
		if !isPosTarget(sp, sp.NegV[i]) {
			right.Set(int(sp.NegV[i]), 0, -10)
		}
	}
	// Collisions (a node that is both pos and neg target) break a perfect
	// oracle; only assert perfection when there are none.
	collision := false
	for i := range sp.NegV {
		if isPosTarget(sp, sp.NegV[i]) {
			collision = true
		}
	}
	p := sp.Precision(left, s, right)
	if !collision && p != 1 {
		t.Fatalf("oracle precision %g, want 1", p)
	}
	if collision && p < 0.8 {
		t.Fatalf("oracle-with-collisions precision %g", p)
	}
}

func isPosTarget(sp *LinkPredSplit, v int32) bool {
	for _, pv := range sp.PosV {
		if pv == v {
			return true
		}
	}
	return false
}

func TestLinkPredPrecisionRandomNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := buildLPGraph(rng, 60)
	s := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	sp := NewLinkPredSplit(g, s, 0.3, 9)
	left := linalg.NewDense(len(s), 4)
	right := linalg.NewDense(60, 4)
	for i := range left.Data {
		left.Data[i] = rng.NormFloat64()
	}
	for i := range right.Data {
		right.Data[i] = rng.NormFloat64()
	}
	p := sp.Precision(left, s, right)
	if p < 0.15 || p > 0.85 {
		t.Fatalf("random embedding precision %g, expected near 0.5", p)
	}
}

func TestPrecisionSameSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := buildLPGraph(rng, 30)
	s := []int32{0, 1, 2}
	sp := NewLinkPredSplit(g, s, 0.3, 3)
	emb := linalg.NewDense(30, 3)
	for i := range emb.Data {
		emb.Data[i] = rng.NormFloat64()
	}
	p := sp.PrecisionSameSpace(emb)
	if p < 0 || p > 1 {
		t.Fatalf("precision out of range: %g", p)
	}
}
