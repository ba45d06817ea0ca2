// Kernel benchmark suite (external test package so it can drive the
// level-1 rsvd path without an import cycle). `make bench-kernels` runs
// TestEmitKernelBench, which measures every hot kernel across worker
// budgets with testing.Benchmark and writes BENCH_KERNELS.json; the
// B-prefixed functions are plain `go test -bench` entry points for ad-hoc
// profiling.
package linalg_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/rsvd"
	"github.com/tree-svd/treesvd/internal/sparse"
)

func benchDense(seed int64, r, c int) *linalg.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func benchCSR(seed int64, r, c int, density float64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// The 2048×512 class: the |S|×(k·d) concat matrices of upper-level merges
// (|S| subset rows, Branch·Rank ≈ 512 columns after a k=4, d=128 merge).
const (
	benchRows = 2048
	benchCols = 512
)

func BenchmarkGram(b *testing.B) {
	a := benchDense(1, benchRows, benchCols)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				linalg.GramW(a, w)
			}
		})
	}
}

func BenchmarkMul(b *testing.B) {
	a := benchDense(2, benchRows, benchCols)
	x := benchDense(3, benchCols, benchCols)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				linalg.MulW(a, x, w)
			}
		})
	}
}

func BenchmarkTMul(b *testing.B) {
	a := benchDense(4, benchRows, benchCols)
	x := benchDense(5, benchRows, benchCols)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				linalg.TMulW(a, x, w)
			}
		})
	}
}

func BenchmarkSVDTrunc(b *testing.B) {
	a := benchDense(6, benchRows, benchCols)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				linalg.SVDTruncW(a, 128, w)
			}
		})
	}
}

func BenchmarkFactorBlock(b *testing.B) {
	blk := benchCSR(7, 512, 4096, 0.01)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rsvd.Sparse(blk, rsvd.Options{Rank: 64, Seed: 9, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mergeCase is one upper-level merge SVD: a rows×cols concat of cols/d
// children cut to rank d.
type mergeCase struct {
	rows, cols, d int
	input         string
}

func (c mergeCase) String() string {
	return fmt.Sprintf("%dx%d_d%d_%s", c.rows, c.cols, c.d, c.input)
}

// The two merge shapes — the benchmark's |S| = 128 and a |S| = 1024
// subset, both with k·d = 128 columns — at k = 8, d = 16 and k = 4,
// d = 32, on a Gaussian matrix and on a merge-like one.
func mergeCases() []mergeCase {
	var cs []mergeCase
	for _, rows := range []int{128, 1024} {
		for _, d := range []int{16, 32} {
			for _, input := range []string{"gaussian", "mergelike"} {
				cs = append(cs, mergeCase{rows, 128, d, input})
			}
		}
	}
	return cs
}

// matrix builds the case's input; merge-like is what Tree.merge sees.
func (c mergeCase) matrix() *linalg.Dense {
	if c.input == "gaussian" {
		return benchDense(11, c.rows, c.cols)
	}
	return linalg.MergeLike(rand.New(rand.NewSource(12)), c.rows, c.cols/c.d, c.d)
}

// mergeStage is one timed piece of a merge SVD.
type mergeStage struct {
	name string
	fn   func()
}

// stages lists the top-d route stage by stage, then the whole call down
// each route. The stage rows sum to "whole" (up to the scratch
// allocations and the Gram copy "reduce" makes to be repeatable).
func (c mergeCase) stages() []mergeStage {
	a := c.matrix()
	m := linalg.NewMergeStages(a, c.d)
	return []mergeStage{
		{"gram", m.Gram},
		{"reduce", m.Reduce},
		{"eigenvalues", m.Eigenvalues},
		{"vectors", m.Vectors},
		{"backproject", m.BackProject},
		{"whole", func() { linalg.SVDTruncW(a, c.d, 1) }},
		{"whole_full", func() {
			linalg.ForceFullEig.Store(true)
			defer linalg.ForceFullEig.Store(false)
			linalg.SVDTruncW(a, c.d, 1)
		}},
	}
}

// BenchmarkSVDTruncMerge attributes an upper-level merge SVD to its
// stages and sets the top-d route beside the full solver on the same
// input; partialEigRatio was picked from its whole/whole_full rows.
func BenchmarkSVDTruncMerge(b *testing.B) {
	for _, c := range mergeCases() {
		for _, st := range c.stages() {
			b.Run(c.String()+"/"+st.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					st.fn()
				}
			})
		}
	}
}

// benchRecord is one BENCH_KERNELS.json row.
type benchRecord struct {
	Op       string  `json:"op"`
	Rows     int     `json:"rows"`
	Cols     int     `json:"cols"`
	Workers  int     `json:"workers"`
	NsOp     int64   `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
	CPUs     int     `json:"cpus"`
	MFlops   float64 `json:"mflops,omitempty"`
	Rank     int     `json:"rank,omitempty"`  // SVDTruncMerge rows: kept triplets
	Input    string  `json:"input,omitempty"` // SVDTruncMerge rows: gaussian | mergelike
}

// TestEmitKernelBench writes the machine-readable kernel benchmark table
// when BENCH_KERNELS_OUT names an output path (it is a no-op under plain
// `go test`). Every record carries the host CPU count: on a single-core
// box the w>1 rows measure dispatch overhead, not scaling.
func TestEmitKernelBench(t *testing.T) {
	out := os.Getenv("BENCH_KERNELS_OUT")
	if out == "" {
		t.Skip("set BENCH_KERNELS_OUT=path to emit BENCH_KERNELS.json")
	}
	cpus := runtime.NumCPU()
	var recs []benchRecord
	record := func(op string, rows, cols, workers int, flops float64, ns, allocs, bytes int64) *benchRecord {
		rec := benchRecord{
			Op: op, Rows: rows, Cols: cols, Workers: workers,
			NsOp: ns, AllocsOp: allocs, BytesOp: bytes,
			CPUs: cpus,
		}
		if flops > 0 && ns > 0 {
			rec.MFlops = flops / float64(ns) * 1e3
		}
		recs = append(recs, rec)
		t.Logf("%-14s %5dx%-5d w=%d  %12d ns/op  %8d allocs/op  %12d B/op",
			op, rows, cols, workers, ns, allocs, bytes)
		return &recs[len(recs)-1]
	}
	add := func(op string, rows, cols, workers int, flops float64, fn func()) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		record(op, rows, cols, workers, flops, r.NsPerOp(), r.AllocsPerOp(), r.AllocedBytesPerOp())
	}

	a := benchDense(1, benchRows, benchCols)
	x := benchDense(2, benchCols, benchCols)
	y := benchDense(3, benchRows, benchCols)
	for _, w := range []int{1, 2, 4} {
		w := w
		add("Gram", benchRows, benchCols, w,
			float64(benchRows)*benchCols*benchCols, // ×2 flops, ÷2 symmetry
			func() { linalg.GramW(a, w) })
		add("Mul", benchRows, benchCols, w,
			2*float64(benchRows)*benchCols*benchCols,
			func() { linalg.MulW(a, x, w) })
		add("TMul", benchRows, benchCols, w,
			2*float64(benchRows)*benchCols*benchCols,
			func() { linalg.TMulW(a, y, w) })
		add("MulT", benchRows, benchCols, w,
			2*float64(benchRows)*benchCols*benchRows,
			func() { linalg.MulTW(a, y, w) })
	}
	add("SVDTrunc", benchRows, benchCols, 1, 0,
		func() { linalg.SVDTruncW(a, 128, 1) })

	blk := benchCSR(4, 512, 4096, 0.01)
	for _, w := range []int{1, 4} {
		w := w
		add("FactorBlock", 512, 4096, w, 0, func() {
			if _, err := rsvd.Sparse(blk, rsvd.Options{Rank: 64, Seed: 9, Workers: w}); err != nil {
				t.Fatal(err)
			}
		})
	}

	// The merge stages are compared with each other, and on a shared box
	// whole seconds run a third slower than their neighbours — more than
	// the 10 % the stage sum is held to. So the stages are timed
	// round-robin in short slices, a slow spell falling on all of them,
	// and each keeps its fastest slice.
	const rounds, calls = 40, 20
	var ms runtime.MemStats
	for _, c := range mergeCases() {
		stages := c.stages()
		ns := make([]int64, len(stages))
		for r := 0; r < rounds; r++ {
			for i, st := range stages {
				start := time.Now()
				for k := 0; k < calls; k++ {
					st.fn()
				}
				if d := time.Since(start).Nanoseconds() / calls; r == 0 || d < ns[i] {
					ns[i] = d
				}
			}
		}
		var sum, whole, full int64
		for i, st := range stages {
			runtime.ReadMemStats(&ms)
			mallocs, bytes := ms.Mallocs, ms.TotalAlloc
			for k := 0; k < calls; k++ {
				st.fn()
			}
			runtime.ReadMemStats(&ms)
			rec := record("SVDTruncMerge/"+st.name, c.rows, c.cols, 1, 0, ns[i],
				int64(ms.Mallocs-mallocs)/calls, int64(ms.TotalAlloc-bytes)/calls)
			rec.Rank, rec.Input = c.d, c.input
			switch st.name {
			case "whole":
				whole = rec.NsOp
			case "whole_full":
				full = rec.NsOp
			default:
				sum += rec.NsOp
			}
		}
		t.Logf("SVDTruncMerge %v: stages sum to %.2f of whole; full/top-d = %.2f",
			c, float64(sum)/float64(whole), float64(full)/float64(whole))
	}

	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
