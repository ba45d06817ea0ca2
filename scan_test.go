package treesvd

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/linalg"
)

// scanFixture is a right embedding with many tied scores (a few distinct
// rows repeated), so the node-id tie-break is exercised on every case.
func scanFixture(n, d int) (xs []float64, y *linalg.Dense) {
	rng := rand.New(rand.NewSource(7))
	xs = make([]float64, d)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	y = linalg.NewDense(n, d)
	for v := 0; v < n; v++ {
		proto := rand.New(rand.NewSource(int64(v % 5)))
		for i := 0; i < d; i++ {
			y.Set(v, i, proto.NormFloat64())
		}
	}
	return xs, y
}

// bruteTopK is the specification: score [lo,hi) minus the excluded set,
// full sort by (score desc, node asc), truncate.
func bruteTopK(xs []float64, y *linalg.Dense, lo, hi int, exclude []int32, k int) []Recommendation {
	var all []Recommendation
	for v := lo; v < hi; v++ {
		if !slices.Contains(exclude, int32(v)) {
			all = append(all, Recommendation{Node: int32(v), Score: dot(xs, y.Row(v))})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	return all[:min(k, len(all))]
}

func TestScanTopKExclusions(t *testing.T) {
	xs, y := scanFixture(60, 4)
	cases := map[string]struct {
		lo, hi  int
		exclude []int32
	}{
		"none":               {0, 60, nil},
		"at lo":              {10, 40, []int32{10}},
		"at hi-1":            {10, 40, []int32{39}},
		"at lo and hi-1":     {10, 40, []int32{10, 39}},
		"outside the range":  {10, 40, []int32{3, 9, 40, 55}},
		"straddling":         {10, 40, []int32{0, 9, 10, 11, 25, 39, 40, 59}},
		"duplicated":         {0, 60, []int32{4, 4, 4, 17, 17, 59, 59}},
		"duplicated at lo":   {17, 60, []int32{4, 17, 17, 18}},
		"the source itself":  {0, 60, []int32{0}},
		"a whole range":      {20, 23, []int32{20, 21, 22}},
		"everything but one": {20, 23, []int32{20, 22}},
	}
	for name, tc := range cases {
		for _, k := range []int{1, 5, 100} {
			got := mergeTopK([]recHeap{scanTopK(xs, y, tc.lo, tc.hi, tc.exclude, k)}, k)
			want := bruteTopK(xs, y, tc.lo, tc.hi, tc.exclude, k)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s, k=%d:\n got %v\nwant %v", name, k, got, want)
			}
		}
	}
}

func TestExclusionListsSortedAndDeduplicated(t *testing.T) {
	g := graph.New(10)
	for _, e := range [][2]int32{{3, 9}, {3, 1}, {3, 3}, {3, 5}, {7, 2}, {7, 0}} {
		g.InsertEdge(e[0], e[1])
	}
	excluded, off := exclusionLists(g, []int32{3, 7, 8})
	want := [][]int32{{1, 3, 5, 9}, {0, 2, 7}, {8}}
	for i, w := range want {
		if got := excluded[off[i]:off[i+1]]; !slices.Equal(got, w) {
			t.Errorf("row %d: %v, want %v", i, got, w)
		}
	}
	if len(off) != len(want)+1 || int(off[len(want)]) != len(excluded) {
		t.Errorf("offsets %v do not frame %d entries", off, len(excluded))
	}
}

// BenchmarkScanTopK is one warm Recommend at the benchmark's shape: 9 000
// candidates, dimension 16, k = 10, a source with five out-neighbors.
func BenchmarkScanTopK(b *testing.B) {
	xs, y := scanFixture(9000, 16)
	exclude := []int32{12, 700, 701, 4400, 8100, 8999}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanTopK(xs, y, 0, 9000, exclude, 10)
	}
}
