package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/client"
	"github.com/tree-svd/treesvd/internal/faultfs"
	"github.com/tree-svd/treesvd/internal/wal"
	"github.com/tree-svd/treesvd/internal/wire"
	"github.com/tree-svd/treesvd/server"
)

// holdIngestSlot opens a streaming ingest request and keeps its frame
// stream open, pinning one ingest admission slot until release is
// called. It returns once the server has accepted the first frame, so
// the slot is provably held.
func holdIngestSlot(t *testing.T, url string) (release func()) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/events", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// One frame in: the handler is inside the gate, reading for more.
	var frame []byte
	frame = appendFrame(frame, []treesvd.Event{{U: 1, V: 2, Type: treesvd.Insert}})
	if _, err := pw.Write(frame); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the server consume the frame
	return func() {
		pw.Close()
		<-done
	}
}

func appendFrame(dst []byte, events []treesvd.Event) []byte {
	var buf bytes.Buffer
	wire.WriteFrame(&buf, wire.EncodeEvents(events))
	return append(dst, buf.Bytes()...)
}

// TestIngestShedsWhenSaturated pins the single ingest slot with a
// streaming request and asserts the next ingest is shed: HTTP 503 with
// both Retry-After forms on the wire, the typed *treesvd.OverloadError
// out of the client SDK, and the sheds counted under the gate's name in
// treesvd_http_shed_total.
func TestIngestShedsWhenSaturated(t *testing.T) {
	g := buildGraph(rand.New(rand.NewSource(11)), 40, 160)
	emb, err := treesvd.New(g, testSubset, treesvd.Config{Dim: 4, MaxNodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(emb, server.Options{})
	// No queue: shed the instant the one slot is busy.
	server.SetGate(srv, "ingest", 1, 0, 25*time.Millisecond, 80*time.Millisecond)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	release := holdIngestSlot(t, srv.URL())
	defer release()

	// Raw request: inspect the wire form of the shed.
	resp, err := http.Post(srv.URL()+"/v1/events", "application/json",
		nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want the 80ms hint rounded up to 1s", resp.Header.Get("Retry-After"))
	}
	var dto wire.ErrorDTO
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil || dto.RetryAfterMs != 80 {
		t.Fatalf("body RetryAfterMs = %d (%v), want 80", dto.RetryAfterMs, err)
	}

	// Typed form through the SDK (retries off so the shed surfaces).
	c := client.New(srv.URL(), client.WithRetries(0))
	_, err = c.ApplyEvents(context.Background(), []treesvd.Event{{U: 3, V: 4, Type: treesvd.Insert}})
	var ove *treesvd.OverloadError
	if !errors.As(err, &ove) || ove.Endpoint != "ingest" || ove.RetryAfter != 80*time.Millisecond {
		t.Fatalf("want *OverloadError{ingest, 80ms}, got %v", err)
	}
	if sheds := scrapeCounter(t, srv.URL(), `treesvd_http_shed_total{endpoint="ingest"}`); sheds < 2 {
		t.Fatalf("treesvd_http_shed_total{endpoint=\"ingest\"} = %d, want >= 2", sheds)
	}

	// Releasing the slot restores ingest.
	release()
	if _, err := c.ApplyEvents(context.Background(), []treesvd.Event{{U: 3, V: 4, Type: treesvd.Insert}}); err != nil {
		t.Fatalf("ingest after release: %v", err)
	}
	if err := emb.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutHeaderPropagates asserts X-Timeout-Ms becomes the handler
// context's deadline: the SDK stamps it from the caller's context, the
// server folds it in, and the backend observes it.
func TestTimeoutHeaderPropagates(t *testing.T) {
	g := buildGraph(rand.New(rand.NewSource(11)), 40, 160)
	emb, err := treesvd.New(g, testSubset, treesvd.Config{Dim: 4, MaxNodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	capture := &deadlineCapture{Embedder: emb}
	srv := server.New(capture, server.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c := client.New(srv.URL(), client.WithRetries(0))
	if _, err := c.ApplyEvents(ctx, []treesvd.Event{{U: 1, V: 2, Type: treesvd.Insert}}); err != nil {
		t.Fatal(err)
	}
	if !capture.sawDeadline.Load() {
		t.Fatal("the handler context never carried the caller's deadline")
	}

	// A budget too large for a time.Duration must not wrap into an
	// already-expired deadline.
	req, err := http.NewRequest(http.MethodPost, srv.URL()+"/v1/events",
		bytes.NewReader(appendFrame(nil, []treesvd.Event{{U: 2, V: 3, Type: treesvd.Insert}})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set(wire.TimeoutHeader, "10000000000000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("huge %s: status %d %s, want 200", wire.TimeoutHeader, resp.StatusCode, body)
	}
}

// deadlineCapture is a backend that records whether an ingest context
// carried the caller's deadline.
type deadlineCapture struct {
	*treesvd.Embedder
	sawDeadline atomic.Bool
}

func (d *deadlineCapture) ApplyEvents(ctx context.Context, events []treesvd.Event) (int, error) {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) > 0 && time.Until(dl) <= 5*time.Second {
		d.sawDeadline.Store(true)
	}
	return d.Embedder.ApplyEvents(ctx, events)
}

// slowBackend is a backend whose every batch takes a fixed service time
// before it applies.
type slowBackend struct {
	*treesvd.Embedder
	serviceTime time.Duration
}

func (s slowBackend) ApplyEvents(ctx context.Context, events []treesvd.Event) (int, error) {
	time.Sleep(s.serviceTime)
	return s.Embedder.ApplyEvents(ctx, events)
}

// TestHealthAndReadiness walks /healthz and /readyz through the ready →
// draining transition: liveness never flips, readiness does.
func TestHealthAndReadiness(t *testing.T) {
	_, srv := newTestServer(t, treesvd.Config{Dim: 4, MaxNodes: 256})

	get := func(path string) (int, wire.HealthDTO) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dto wire.HealthDTO
		data, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(data, &dto); err != nil {
			t.Fatalf("%s body %q: %v", path, data, err)
		}
		return resp.StatusCode, dto
	}
	if code, dto := get("/healthz"); code != 200 || dto.Status != "ok" {
		t.Fatalf("healthz = %d %q", code, dto.Status)
	}
	if code, dto := get("/readyz"); code != 200 || dto.Status != "ready" {
		t.Fatalf("readyz = %d %q", code, dto.Status)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The listener is gone; probe the handler directly, the way a sidecar
	// sharing the process would.
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var dto wire.HealthDTO
	if err := json.Unmarshal(rr.Body.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	if rr.Code != http.StatusServiceUnavailable || dto.Status != "draining" {
		t.Fatalf("readyz after shutdown = %d %q, want 503 draining", rr.Code, dto.Status)
	}
	rr = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz after shutdown = %d, want 200 (liveness is not readiness)", rr.Code)
	}
}

// TestDegradedEndToEnd drives the whole degradation story over HTTP: a
// disk-full WAL append seals the durable embedder; ingest answers a
// typed 503, reads keep serving, /readyz reports degraded; after the
// operator clears the fault and restarts (Close, then Open, then a new
// server), the failed batch is ingested again.
func TestDegradedEndToEnd(t *testing.T) {
	g := buildGraph(rand.New(rand.NewSource(11)), 40, 160)
	cfg := treesvd.DurableConfig{Config: treesvd.Config{Dim: 4, MaxNodes: 256}}

	// Calibrate: count the filesystem ops Create costs, so the fault can
	// be scripted to fire on the first ingest append after it.
	probe := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: 1 << 30, Mode: faultfs.DiskFull})
	d0, err := treesvd.CreateWithFS(probe, t.TempDir(), g.Clone(), testSubset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	createOps := probe.Ops()
	d0.Close()

	ffs := faultfs.Wrap(wal.OS, faultfs.Plan{FailAt: createOps + 1, Mode: faultfs.DiskFull})
	dir := t.TempDir()
	d, err := treesvd.CreateWithFS(ffs, dir, g.Clone(), testSubset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(d, server.Options{})
	defer func() { // the server and store current at exit: the restarted ones once restarted
		srv.Shutdown(context.Background())
		if d != nil {
			d.Close()
		}
	}()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := client.New(srv.URL(), client.WithRetries(0))
	ctx := context.Background()

	// The first logged batch hits the full disk: typed 503.
	batch := []treesvd.Event{{U: 1, V: 2, Type: treesvd.Insert}}
	_, err = c.ApplyEvents(ctx, batch)
	var dge *treesvd.DegradedError
	if !errors.As(err, &dge) {
		t.Fatalf("want *DegradedError over the wire, got %v", err)
	}
	if !ffs.Fired() {
		t.Fatal("the disk-full fault never fired")
	}

	// Reads keep serving the pre-fault snapshot.
	if _, err := c.Embedding(ctx); err != nil {
		t.Fatalf("reads must survive degraded mode: %v", err)
	}

	// /readyz tells the operator.
	resp, err := http.Get(srv.URL() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var dto wire.HealthDTO
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(data, &dto); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || dto.Status != "degraded" || dto.Reason == "" {
		t.Fatalf("readyz = %d %+v, want 503 degraded with a reason", resp.StatusCode, dto)
	}

	// Operator runbook: free space, restart, resend the failed batch.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ffs.Clear()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d, err = treesvd.Open(dir, cfg); err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv = server.New(d, server.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c = client.New(srv.URL(), client.WithRetries(0))
	if resp, err := http.Get(srv.URL() + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after the restart: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if _, err := c.ApplyEvents(ctx, batch); err != nil {
		t.Fatalf("ingest after the restart: %v", err)
	}
}

// TestDurableIngestReplaysAfterClose serves a durable store through the
// one handle: batches ingested over HTTP are durable in the WAL before
// they are acknowledged, so Open after Close replays them.
func TestDurableIngestReplaysAfterClose(t *testing.T) {
	g := buildGraph(rand.New(rand.NewSource(11)), 40, 160)
	dir := t.TempDir()
	// No automatic checkpoint: everything ingested must come back from the WAL.
	cfg := treesvd.DurableConfig{Config: treesvd.Config{Dim: 4, MaxNodes: 256}, CheckpointEvery: -1}
	d, err := treesvd.Create(dir, g, testSubset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(d, server.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := client.New(srv.URL(), client.WithRetries(0))
	res, err := c.ApplyEventBatches(context.Background(), [][]treesvd.Event{
		{{U: 40, V: 3, Type: treesvd.Insert}},
		{{U: 3, V: 41, Type: treesvd.Insert}, {U: 41, V: 0, Type: treesvd.Insert}},
	})
	if err != nil || res.Batches != 2 {
		t.Fatalf("ingest = %+v, %v; want 2 batches", res, err)
	}
	served := d.Snapshot()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := treesvd.Open(dir, treesvd.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Recovery().ReplayedBatches; got != res.Batches {
		t.Fatalf("Open replayed %d batches, want the %d ingested over HTTP", got, res.Batches)
	}
	got := d2.Snapshot()
	if got.NumNodes() != served.NumNodes() || got.NumEdges() != served.NumEdges() {
		t.Fatalf("reopened graph %d nodes / %d edges, served %d / %d",
			got.NumNodes(), got.NumEdges(), served.NumNodes(), served.NumEdges())
	}
	want := served.Embedding()
	for i, row := range got.Embedding() {
		for j, x := range row {
			if math.Abs(x-want[i][j]) > 1e-9*(1+math.Abs(want[i][j])) {
				t.Fatalf("reopened embedding [%d][%d] = %g, served %g", i, j, x, want[i][j])
			}
		}
	}
}

// TestOverloadAtTwiceKnee is the overload characterization (run by
// `make chaos` alongside the netfault storm). The ingest handler is
// given a fixed service time, which puts the knee at exactly
// slots/serviceTime; a concurrent burst far past that knee must degrade
// gracefully — accepted requests stay fast (p99 within 3× the unloaded
// p99 plus the queue wait), sheds are fast O(1) rejections, and nothing
// hangs.
func TestOverloadAtTwiceKnee(t *testing.T) {
	const (
		serviceTime = 5 * time.Millisecond
		queueWait   = 10 * time.Millisecond
		slack       = 100 * time.Millisecond // scheduler noise budget on tiny CI boxes
	)
	g := buildGraph(rand.New(rand.NewSource(11)), 40, 160)
	emb, err := treesvd.New(g, testSubset, treesvd.Config{Dim: 4, MaxNodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(slowBackend{Embedder: emb, serviceTime: serviceTime}, server.Options{})
	server.SetGate(srv, "ingest", 2, 2, queueWait, 20*time.Millisecond)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	oneEvent := []treesvd.Event{{U: 1, V: 2, Type: treesvd.Insert}}

	// Phase 1 — unloaded baseline, sequential.
	c := client.New(srv.URL(), client.WithRetries(0))
	var unloaded []time.Duration
	for i := 0; i < 40; i++ {
		start := time.Now()
		if _, err := c.ApplyEvents(ctx, oneEvent); err != nil {
			t.Fatalf("unloaded request %d: %v", i, err)
		}
		unloaded = append(unloaded, time.Since(start))
	}
	unloadedP99 := quantileDur(unloaded, 0.99)

	// Phase 2 — burst far past the 2-slot knee.
	const (
		workers = 32
		perW    = 8
	)
	var (
		mu            sync.Mutex
		accepted      []time.Duration
		shed          []time.Duration
		wg            sync.WaitGroup
		otherFailures atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c := client.New(srv.URL(), client.WithRetries(0))
			for i := 0; i < perW; i++ {
				start := time.Now()
				_, err := c.ApplyEvents(ctx, oneEvent)
				d := time.Since(start)
				mu.Lock()
				switch {
				case err == nil:
					accepted = append(accepted, d)
				default:
					var ove *treesvd.OverloadError
					if errors.As(err, &ove) {
						shed = append(shed, d)
					} else {
						otherFailures.Add(1)
					}
				}
				mu.Unlock()
			}
		}(int64(w))
	}
	wg.Wait()

	if len(accepted) == 0 {
		t.Fatal("overload accepted nothing — the gate is rejecting everything")
	}
	if len(shed) == 0 {
		t.Fatalf("no request was shed at %d-way concurrency over 2 slots", workers)
	}
	if n := otherFailures.Load(); n > 0 {
		t.Fatalf("%d requests failed with something other than a shed", n)
	}
	acceptedP99 := quantileDur(accepted, 0.99)
	shedP99 := quantileDur(shed, 0.99)
	if limit := 3*unloadedP99 + queueWait + slack; acceptedP99 > limit {
		t.Fatalf("accepted p99 %v exceeds %v (3x unloaded %v + queue wait + slack): overload is not shedding early enough",
			acceptedP99, limit, unloadedP99)
	}
	if limit := queueWait + slack; shedP99 > limit {
		t.Fatalf("shed p99 %v exceeds %v: rejections must be fast", shedP99, limit)
	}
	t.Logf("overload: %d accepted (p99 %v, unloaded p99 %v), %d shed (p99 %v)",
		len(accepted), acceptedP99, unloadedP99, len(shed), shedP99)
}

// TestShutdownDropsNoAcceptedRequest fires a burst of reads while the
// server concurrently begins graceful shutdown. Each request must see a
// clean outcome: either it was never accepted (dial/transport error —
// the listener had closed) or it completes with a full, well-formed
// response. A truncated body or a reset mid-response is a dropped
// accepted request, which graceful drain exists to prevent.
func TestShutdownDropsNoAcceptedRequest(t *testing.T) {
	_, srv := newTestServer(t, treesvd.Config{Dim: 4, MaxNodes: 256})
	url := srv.URL()

	const inFlight = 50
	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		refused   atomic.Int64
		dropped   atomic.Int64
	)
	start := make(chan struct{})
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Get(url + "/v1/embedding")
			if err != nil {
				refused.Add(1) // never accepted: a clean refusal
				return
			}
			defer resp.Body.Close()
			if _, err := io.ReadAll(resp.Body); err != nil {
				dropped.Add(1) // accepted, then truncated: the bug
				return
			}
			completed.Add(1)
		}()
	}
	close(start)
	// Shutdown races the burst deliberately.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during burst: %v", err)
	}
	wg.Wait()

	if dropped.Load() != 0 {
		t.Fatalf("%d accepted requests were dropped mid-response (completed %d, refused %d)",
			dropped.Load(), completed.Load(), refused.Load())
	}
	t.Logf("shutdown race: %d completed, %d refused, 0 dropped", completed.Load(), refused.Load())
}

// quantileDur returns the q-quantile of ds by sorting a copy.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	i := int(q * float64(len(s)-1))
	return s[i]
}

// scrapeCounter reads one series of the server's Prometheus page.
func scrapeCounter(t *testing.T, url, series string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics lacks %s", series)
	return 0
}
