package treesvd

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
)

// scanFixture is a score row with many tied scores (five distinct values
// repeated), so the node-id tie-break is exercised on every case.
func scanFixture(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	distinct := make([]float64, 5)
	for i := range distinct {
		distinct[i] = rng.NormFloat64()
	}
	scores := make([]float64, n)
	for v := range scores {
		scores[v] = distinct[v%len(distinct)]
	}
	return scores
}

// bruteTopK is the specification: every candidate minus the excluded set,
// full sort by (score desc, node asc), truncate.
func bruteTopK(scores []float64, exclude []int32, k int) []Recommendation {
	var all []Recommendation
	for v, score := range scores {
		if !slices.Contains(exclude, int32(v)) {
			all = append(all, Recommendation{Node: int32(v), Score: score})
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
	scores := scanFixture(60)
	cases := map[string]struct {
		n       int
		exclude []int32
	}{
		"none":               {60, nil},
		"at 0":               {40, []int32{0}},
		"at n-1":             {40, []int32{39}},
		"at 0 and n-1":       {40, []int32{0, 39}},
		"outside the range":  {40, []int32{40, 55}},
		"straddling":         {40, []int32{0, 1, 25, 39, 40, 59}},
		"duplicated":         {60, []int32{4, 4, 4, 17, 17, 59, 59}},
		"duplicated at 0":    {60, []int32{0, 0, 1}},
		"a whole range":      {3, []int32{0, 1, 2}},
		"everything but one": {3, []int32{0, 2}},
		"no candidates":      {0, []int32{3}},
	}
	for name, tc := range cases {
		for _, k := range []int{1, 5, 100, math.MaxInt} {
			got := scanTopK(scores[:tc.n], tc.exclude, k)
			want := bruteTopK(scores[:tc.n], tc.exclude, k)
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

// BenchmarkScanTopK is the top-k half of one Recommend at the benchmark's
// shape: 9 000 candidates, k = 10, a source with five out-neighbors.
func BenchmarkScanTopK(b *testing.B) {
	scores := scanFixture(9000)
	exclude := []int32{12, 700, 701, 4400, 8100, 8999}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanTopK(scores, exclude, 10)
	}
}
