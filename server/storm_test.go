package server_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/client"
	"github.com/tree-svd/treesvd/server"
)

// TestServingStorm is the serving-layer storm (run under -race): reader
// goroutines hammer Recommend/Embedding through the client SDK while a
// writer streams ApplyEvents batches and another goroutine cycles
// graceful shutdown/restart of the server (new listener each cycle, same
// embedder). Transport errors during a swap are expected and skipped;
// every response that does succeed must be internally consistent — its
// row shapes match the subset/dim, its recommendations respect the k
// contract, and the version it reports never moves backwards, because
// every server generation fronts the same snapshot sequence.
func TestServingStorm(t *testing.T) {
	g := buildGraph(rand.New(rand.NewSource(23)), 40, 160)
	emb, err := treesvd.New(g, testSubset, treesvd.Config{Dim: 6, RMax: 1e-3, MaxNodes: 256})
	if err != nil {
		t.Fatal(err)
	}

	// currentURL always points at the live server generation.
	var currentURL atomic.Value
	srv := server.New(emb, server.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	currentURL.Store(srv.URL())

	const (
		readers      = 4
		readIters    = 120
		writerEvents = 200
		restarts     = 4
	)
	var (
		wg       sync.WaitGroup
		fails    atomic.Int64
		okReads  atomic.Int64
		okWrites atomic.Int64
	)
	fail := func(format string, args ...any) {
		fails.Add(1)
		t.Errorf(format, args...)
	}
	ctx := context.Background()

	// transient reports whether an error is an expected casualty of the
	// shutdown/restart cycle rather than a correctness bug: connection
	// refused/reset around a listener swap, or a typed error a reader
	// deliberately provoked.
	transient := func(err error) bool {
		var apiErr *client.APIError
		return err != nil && !errors.As(err, &apiErr)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var lastVersion uint64
			for i := 0; i < readIters; i++ {
				c := client.New(currentURL.Load().(string),
					client.WithRetries(0), client.WithBinary(rng.Intn(2) == 0))
				switch rng.Intn(3) {
				case 0:
					k := 1 + rng.Intn(8)
					src := testSubset[rng.Intn(len(testSubset))]
					res, err := c.Recommend(ctx, src, k)
					if err != nil {
						if !transient(err) {
							fail("reader: recommend: %v", err)
						}
						continue
					}
					if len(res.Recs) > k {
						fail("reader: %d recs for k=%d", len(res.Recs), k)
					}
					for j := 1; j < len(res.Recs); j++ {
						if res.Recs[j].Score > res.Recs[j-1].Score {
							fail("reader: recs not sorted at %d", j)
						}
					}
					if res.Version < lastVersion {
						fail("reader: version went backwards: %d after %d", res.Version, lastVersion)
					}
					lastVersion = res.Version
				case 1:
					res, err := c.Embedding(ctx)
					if err != nil {
						if !transient(err) {
							fail("reader: embedding: %v", err)
						}
						continue
					}
					if len(res.Rows) != len(testSubset) {
						fail("reader: embedding has %d rows, want %d", len(res.Rows), len(testSubset))
					}
					for _, row := range res.Rows {
						if len(row) != 6 {
							fail("reader: embedding row dim %d, want 6", len(row))
						}
					}
					if res.Version < lastVersion {
						fail("reader: version went backwards: %d after %d", res.Version, lastVersion)
					}
					lastVersion = res.Version
				default:
					ver, err := c.Version(ctx)
					if err != nil {
						if !transient(err) {
							fail("reader: version: %v", err)
						}
						continue
					}
					if ver.Version < lastVersion {
						fail("reader: version went backwards: %d after %d", ver.Version, lastVersion)
					}
					lastVersion = ver.Version
					if ver.SubsetSize != len(testSubset) {
						fail("reader: subset size %d, want %d", ver.SubsetSize, len(testSubset))
					}
				}
				okReads.Add(1)
			}
		}(int64(100 + r))
	}

	// Writer: small streamed batches against whichever generation is live.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < writerEvents/4; i++ {
			batch := make([]treesvd.Event, 4)
			for j := range batch {
				batch[j] = treesvd.Event{U: int32(rng.Intn(60)), V: int32(rng.Intn(60)), Type: treesvd.Insert}
			}
			c := client.New(currentURL.Load().(string), client.WithRetries(0))
			res, err := c.ApplyEvents(ctx, batch)
			if err != nil {
				if !transient(err) {
					fail("writer: %v", err)
				}
				continue
			}
			if res.Events != len(batch) {
				fail("writer: applied %d events, want %d", res.Events, len(batch))
			}
			okWrites.Add(1)
		}
	}()

	// Restart cycler: bring up the next generation, repoint clients, then
	// drain the old one. The embedder is shared across generations; each
	// generation registers its HTTP series in a registry of its own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		old := srv
		for i := 0; i < restarts; i++ {
			time.Sleep(15 * time.Millisecond)
			next := server.New(emb, server.Options{})
			if err := next.Start("127.0.0.1:0"); err != nil {
				fail("restart %d: %v", i, err)
				return
			}
			currentURL.Store(next.URL())
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := old.Shutdown(ctx); err != nil {
				fail("shutdown %d: %v", i, err)
			}
			cancel()
			old = next
		}
		srv = old
	}()

	wg.Wait()
	defer srv.Shutdown(context.Background())

	if okReads.Load() == 0 || okWrites.Load() == 0 {
		t.Fatalf("storm made no progress: %d reads, %d writes succeeded", okReads.Load(), okWrites.Load())
	}
	t.Logf("storm: %d reads, %d writes succeeded across %d restarts (failures: %d)",
		okReads.Load(), okWrites.Load(), restarts, fails.Load())

	// The embedder must still be coherent after the storm.
	if err := emb.Audit(); err != nil {
		t.Fatalf("post-storm audit: %v", err)
	}
}
