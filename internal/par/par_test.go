package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		n := int(seed%50) + 1
		w := int(seed%7) + 1
		seen := make([]int32, n)
		// A nil ctx is the form the hierarchical SVD calls it in.
		if err := ForErr(nil, n, w, func(i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		}); err != nil {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForZeroItems(t *testing.T) {
	called := false
	ForErr(nil, 0, 4, func(int) error { called = true; return nil })
	if called {
		t.Fatal("fn called for n=0")
	}
}

func TestForSingleWorkerOrdered(t *testing.T) {
	var order []int
	ForErr(nil, 10, 1, func(i int) error { order = append(order, i); return nil })
	for i, v := range order {
		if v != i {
			t.Fatal("single-worker ForErr not sequential")
		}
	}
}

func TestWorkers(t *testing.T) {
	// The unified resolver uses the public-config convention: 0 or
	// negative (and 1) all mean sequential.
	if Workers(0) != 1 {
		t.Fatal("Workers(0) != 1")
	}
	if Workers(-3) != 1 {
		t.Fatal("Workers(-3) != 1")
	}
	if Workers(1) != 1 {
		t.Fatal("Workers(1) != 1")
	}
	if Workers(5) != 5 {
		t.Fatal("Workers(5) != 5")
	}
}

func TestForChunksCoversAllIndicesOnce(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		n := int(seed % 200)
		w := int(seed%9) - 1 // include 0 and -1
		seen := make([]int32, n)
		ForChunks(n, w, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Fatalf("bad range [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForChunksZeroItems(t *testing.T) {
	ForChunks(0, 4, func(lo, hi int) { t.Fatal("fn called for n=0") })
}

func TestForChunksSequentialIsSingleRange(t *testing.T) {
	calls := 0
	ForChunks(17, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 17 {
			t.Fatalf("sequential ForChunks got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("sequential ForChunks made %d calls", calls)
	}
}

func TestForChunksRangesAreContiguousAndDeterministic(t *testing.T) {
	// Chunk boundaries must depend only on (n, w): collect the realized
	// ranges twice and compare as sets.
	collect := func() map[[2]int]bool {
		var mu sync.Mutex
		set := make(map[[2]int]bool)
		ForChunks(1000, 3, func(lo, hi int) {
			mu.Lock()
			set[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return set
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("chunk count varies: %d vs %d", len(a), len(b))
	}
	for r := range a {
		if !b[r] {
			t.Fatalf("range %v missing from second run", r)
		}
	}
}

func TestForParallelActuallyParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-core machine")
	}
	var concurrent, peak int32
	// Each body holds its slot until a second worker has been seen inside
	// fn at the same time (or the deadline passes), so one worker cannot
	// drain every index before the others are scheduled.
	deadline := time.Now().Add(10 * time.Second)
	ForErr(nil, 64, 8, func(int) error {
		c := atomic.AddInt32(&concurrent, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		for atomic.LoadInt32(&peak) < 2 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		atomic.AddInt32(&concurrent, -1)
		return nil
	})
	if peak < 2 {
		t.Fatalf("peak concurrency %d with 8 workers, want >= 2", peak)
	}
}

func TestForWorkerCoversAllIndices(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		n := int(seed%40) + 1
		w := int(seed%5) + 1
		seen := make([]int32, n)
		workers := make([]int32, n)
		ForWorkerErr(nil, n, w, func(worker, i int) error {
			atomic.AddInt32(&seen[i], 1)
			atomic.StoreInt32(&workers[i], int32(worker))
			return nil
		})
		resolved := Workers(w)
		if resolved > n {
			resolved = n
		}
		for i, c := range seen {
			if c != 1 {
				return false
			}
			if int(workers[i]) >= resolved && resolved > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForWorkerSequentialIsWorkerZero(t *testing.T) {
	ForWorkerErr(nil, 8, 1, func(worker, i int) error {
		if worker != 0 {
			t.Fatalf("sequential ForWorkerErr used worker %d", worker)
		}
		return nil
	})
	ForWorkerErr(nil, 0, 4, func(worker, i int) error { t.Fatal("fn called for n=0"); return nil })
}

func TestForWorkerStableIDsWithinCall(t *testing.T) {
	// Worker ids must stay in range even when w exceeds n.
	ForWorkerErr(nil, 3, 16, func(worker, i int) error {
		if worker < 0 || worker >= 3 {
			t.Fatalf("worker id %d out of range for n=3", worker)
		}
		return nil
	})
}
