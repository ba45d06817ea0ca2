package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/client"
	"github.com/tree-svd/treesvd/internal/wire"
	"github.com/tree-svd/treesvd/server"
)

// buildGraph mirrors the root package's test helper: n nodes, every node
// with at least one out-edge, m edges total.
func buildGraph(rng *rand.Rand, n, m int) *treesvd.Graph {
	g := treesvd.NewGraphN(n)
	for v := int32(0); int(v) < n; v++ {
		for {
			u := int32(rng.Intn(n))
			if u != v && g.InsertEdge(v, u) {
				break
			}
		}
	}
	for g.NumEdges() < m {
		g.InsertEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return g
}

var testSubset = []int32{0, 3, 7, 11, 20, 33}

func newTestServer(t *testing.T, cfg treesvd.Config) (*treesvd.Embedder, *server.Server) {
	t.Helper()
	return newTestServerOn(t, buildGraph(rand.New(rand.NewSource(11)), 40, 160), cfg)
}

// newTestServerOn is newTestServer over g, which the embedder retains as
// its live graph.
func newTestServerOn(t *testing.T, g *treesvd.Graph, cfg treesvd.Config) (*treesvd.Embedder, *server.Server) {
	t.Helper()
	emb, err := treesvd.New(g, testSubset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(emb, server.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return emb, srv
}

func sameMatrix(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
				return false
			}
		}
	}
	return true
}

// roundTrip drives every endpoint through the client SDK and checks the
// responses byte-for-byte against the in-process snapshot. Run for both
// codecs.
func roundTrip(t *testing.T, binary bool) {
	emb, srv := newTestServer(t, treesvd.Config{Dim: 6, RMax: 1e-3, MaxNodes: 64})
	opts := []client.Option{client.WithRetries(0)}
	if binary {
		opts = append(opts, client.WithBinary(true))
	}
	c := client.New(srv.URL(), opts...)
	ctx := context.Background()
	snap := emb.Snapshot()

	ver, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Version != snap.Version() || ver.NumNodes != snap.NumNodes() ||
		ver.SubsetSize != len(testSubset) {
		t.Fatalf("version = %+v, want snapshot version=%d nodes=%d subset=%d",
			ver, snap.Version(), snap.NumNodes(), len(testSubset))
	}
	if ver.NumEdges != snap.NumEdges() {
		t.Errorf("version.NumEdges = %d, want %d", ver.NumEdges, snap.NumEdges())
	}

	// Recommend matches the in-process result exactly.
	want, err := snap.Recommend(testSubset[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Recommend(ctx, testSubset[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != snap.Version() || got.Source != testSubset[1] || len(got.Recs) != len(want) {
		t.Fatalf("recommend = %+v, want %d recs at version %d", got, len(want), snap.Version())
	}
	for i := range want {
		if got.Recs[i] != want[i] {
			t.Fatalf("rec[%d] = %+v, want %+v", i, got.Recs[i], want[i])
		}
	}

	// Oversized k truncates (the facade's contract, over the wire).
	big, err := c.Recommend(ctx, testSubset[1], 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Recs) >= 10_000 || len(big.Recs) == 0 {
		t.Fatalf("oversized k returned %d recs", len(big.Recs))
	}

	// Full subset embedding.
	x, err := c.Embedding(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if x.Version != snap.Version() || !sameMatrix(x.Rows, snap.Embedding()) {
		t.Fatal("embedding mismatch with snapshot")
	}
	if !slices.Equal(x.Nodes, testSubset) {
		t.Fatalf("embedding nodes %v, want %v", x.Nodes, testSubset)
	}

	// One embedding row.
	row, err := c.EmbeddingRow(ctx, testSubset[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Rows) != 1 || !sameMatrix(row.Rows, snap.Embedding()[2:3]) {
		t.Fatal("embedding row mismatch")
	}
	if !slices.Equal(row.Nodes, testSubset[2:3]) {
		t.Fatalf("embedding row nodes %v, want %v", row.Nodes, testSubset[2:3])
	}

	// Right embedding, full and one row.
	y, err := c.RightEmbedding(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantY := snap.RightEmbedding()[:snap.NumNodes()]
	if y.Version != snap.Version() || !sameMatrix(y.Rows, wantY) {
		t.Fatal("right embedding mismatch with snapshot")
	}
	if len(y.Nodes) != len(wantY) {
		t.Fatalf("right embedding names %d nodes for %d rows", len(y.Nodes), len(wantY))
	}
	for i, v := range y.Nodes {
		if v != int32(i) {
			t.Fatalf("right embedding nodes[%d] = %d", i, v)
		}
	}
	yrow, err := c.RightEmbeddingRow(ctx, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(yrow.Rows) != 1 || !sameMatrix(yrow.Rows, wantY[17:18]) {
		t.Fatal("right embedding row mismatch")
	}
	if !slices.Equal(yrow.Nodes, []int32{17}) {
		t.Fatalf("right embedding row nodes %v, want [17]", yrow.Nodes)
	}

	// Typed errors cross the wire.
	var ike *treesvd.InvalidKError
	if _, err := c.Recommend(ctx, testSubset[0], 0); !errors.As(err, &ike) || ike.K != 0 {
		t.Fatalf("k=0: want *InvalidKError{K:0}, got %v", err)
	}
	var nis *treesvd.NotInSubsetError
	if _, err := c.Recommend(ctx, 5, 3); !errors.As(err, &nis) || nis.Node != 5 || nis.Subset != len(testSubset) {
		t.Fatalf("non-subset source: want *NotInSubsetError{Node:5}, got %v", err)
	}
	nis = nil
	if _, err := c.EmbeddingRow(ctx, 5); !errors.As(err, &nis) || nis.Node != 5 {
		t.Fatalf("embedding row of non-subset node: want *NotInSubsetError, got %v", err)
	}
	var nre *treesvd.NodeRangeError
	if _, err := c.RightEmbeddingRow(ctx, 1000); !errors.As(err, &nre) || nre.Node != 1000 {
		t.Fatalf("right embedding row out of range: want *NodeRangeError, got %v", err)
	}
	// A row the MaxNodes headroom reserves past the graph's nodes.
	if _, err := c.RightEmbeddingRow(ctx, int32(snap.NumNodes())); !errors.As(err, &nre) || nre.MaxNodes != snap.NumNodes() {
		t.Fatalf("right embedding row at NumNodes: want *NodeRangeError naming %d nodes, got %v", snap.NumNodes(), err)
	}

	// Ingest advances the version and the next read sees it.
	before := emb.Version()
	res, err := c.ApplyEvents(ctx, []treesvd.Event{
		{U: 40, V: 3, Type: treesvd.Insert},
		{U: 3, V: 41, Type: treesvd.Insert},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 1 || res.Events != 2 || res.Version <= before {
		t.Fatalf("apply = %+v, want 1 batch / 2 events / version > %d", res, before)
	}
	ver2, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ver2.Version != res.Version || ver2.NumNodes <= ver.NumNodes {
		t.Fatalf("post-ingest version = %+v, want version %d and more nodes than %d", ver2, res.Version, ver.NumNodes)
	}

	// An out-of-capacity event is rejected with the embedder's typed error
	// and applies nothing.
	nre = nil
	if _, err := c.ApplyEvents(ctx, []treesvd.Event{{U: 0, V: 500, Type: treesvd.Insert}}); !errors.As(err, &nre) {
		t.Fatalf("out-of-capacity ingest: want *NodeRangeError, got %v", err)
	}
	if emb.Version() != res.Version {
		t.Error("rejected ingest batch republished a snapshot")
	}

	// Multi-frame streaming ingest: each frame is its own batch.
	res2, err := c.ApplyEventBatches(ctx, [][]treesvd.Event{
		{{U: 1, V: 2, Type: treesvd.Insert}},
		{{U: 2, V: 1, Type: treesvd.Insert}, {U: 42, V: 0, Type: treesvd.Insert}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Batches != 2 || res2.Events != 3 {
		t.Fatalf("streamed apply = %+v, want 2 batches / 3 events", res2)
	}
}

func TestEndpointsRoundTripJSON(t *testing.T)   { roundTrip(t, false) }
func TestEndpointsRoundTripBinary(t *testing.T) { roundTrip(t, true) }

// TestRightEmbeddingRowReadCopiesOneRow: a one-row right-embedding read
// allocates a bounded number of times, not once per graph node.
func TestRightEmbeddingRowReadCopiesOneRow(t *testing.T) {
	const n = 2000
	_, srv := newTestServerOn(t, buildGraph(rand.New(rand.NewSource(12)), n, 4*n), treesvd.Config{Dim: 6, RMax: 1e-3})
	h := srv.Handler()
	read := func() {
		req := httptest.NewRequest(http.MethodGet, "/v1/rightembedding?node=17", nil)
		req.Header.Set("Accept", wire.ContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("one-row read: status %d: %s", rec.Code, rec.Body)
		}
	}
	read() // materializes the snapshot's Y once
	if allocs := testing.AllocsPerRun(20, read); allocs > n/20 {
		t.Fatalf("one-row read of a %d-node embedding allocates %.0f times", n, allocs)
	}
}

// TestIngestRefusesJSONBody pins ingest's one wire format: a body that is
// not event frames is a typed 400 with nothing applied, so neither the
// snapshot version nor the HTTP ingest counter moves.
func TestIngestRefusesJSONBody(t *testing.T) {
	emb, srv := newTestServer(t, treesvd.Config{Dim: 4, RMax: 1e-3, MaxNodes: 64})
	before := emb.Version()

	body := `{"events":[{"u":40,"v":1,"type":"insert"},{"u":1,"v":0,"type":"delete"}]}`
	resp, err := http.Post(srv.URL()+"/v1/events", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var dto wire.ErrorDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		t.Fatalf("HTTP %d: body is not an error DTO: %v: %s", resp.StatusCode, err, data)
	}
	if resp.StatusCode != http.StatusBadRequest || dto.Kind != wire.KindBadRequest {
		t.Fatalf("JSON ingest body: HTTP %d kind %q, want 400 %q", resp.StatusCode, dto.Kind, wire.KindBadRequest)
	}
	if v := emb.Version(); v != before {
		t.Fatalf("version %d after a refused body, want %d", v, before)
	}
	if n := scrapeCounter(t, srv.URL(), "treesvd_http_ingest_batches_total"); n != 0 {
		t.Fatalf("treesvd_http_ingest_batches_total = %d after a refused body, want 0", n)
	}
}

// TestIngestRefusesStalledBody sends ingest requests that the server
// refuses from their first bytes — an event frame whose length prefix
// claims more than a batch of 4 events to a server that takes 4, or a body
// of another Content-Type — and then stalls. The server must answer 400
// at once, not wait, ingest slot held, for a body it would refuse anyway:
// whether the request declares its length (past or under net/http's
// 256 KiB drain limit) or is chunked.
func TestIngestRefusesStalledBody(t *testing.T) {
	emb, err := treesvd.New(buildGraph(rand.New(rand.NewSource(11)), 40, 160), testSubset, treesvd.Config{Dim: 4, RMax: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(emb, server.Options{MaxBatchEvents: 4})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	for _, tc := range []struct {
		name, contentType string
		claim             uint32
		chunked           bool
	}{
		{"frame-1MiB", wire.ContentType, 1 << 20, false},
		{"frame-1000B", wire.ContentType, 1000, false},
		{"frame-chunked", wire.ContentType, 1 << 20, true},
		{"json-1000B", "application/json", 1000, false},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/events HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\n", srv.Addr(), tc.contentType)
		prefix := binary.LittleEndian.AppendUint32(nil, tc.claim) // and nothing more
		if tc.chunked {
			fmt.Fprintf(conn, "Transfer-Encoding: chunked\r\n\r\n4\r\n%s\r\n", prefix)
		} else {
			fmt.Fprintf(conn, "Content-Length: %d\r\n\r\n%s", 4+int(tc.claim)+wire.FooterLen, prefix)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: no answer to a stalled refused body: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestIngestCountersCountFailedStreamPrefix sends two good event frames
// and a torn third. The server answers 400, but the two batches before the
// torn frame stay applied, so the HTTP ingest counters must count them as
// the embedder's own batch counter does.
func TestIngestCountersCountFailedStreamPrefix(t *testing.T) {
	_, srv := newTestServer(t, treesvd.Config{Dim: 4, RMax: 1e-3, MaxNodes: 64})
	var body bytes.Buffer
	body.Write(encodeEventFrame(t, []treesvd.Event{{U: 1, V: 2, Type: treesvd.Insert}}))
	body.Write(encodeEventFrame(t, []treesvd.Event{{U: 2, V: 3, Type: treesvd.Insert}, {U: 3, V: 4, Type: treesvd.Insert}}))
	torn := encodeEventFrame(t, []treesvd.Event{{U: 4, V: 5, Type: treesvd.Insert}})
	body.Write(torn[:len(torn)-3])
	resp, err := http.Post(srv.URL()+"/v1/events", wire.ContentType, &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn stream: HTTP %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"\ntreesvd_batches_applied_total 2\n",
		"\ntreesvd_http_ingest_batches_total 2\n",
		"\ntreesvd_http_ingest_events_total 3\n",
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestMetricsAndPprofMounted checks the obs registry and pprof share the
// serving mux, and that the HTTP request metrics appear on it.
func TestMetricsAndPprofMounted(t *testing.T) {
	_, srv := newTestServer(t, treesvd.Config{Dim: 4, RMax: 1e-3})
	c := client.New(srv.URL(), client.WithRetries(0))
	if _, err := c.Version(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	for _, want := range []string{
		`treesvd_http_requests_total{endpoint="version"}`,
		"treesvd_http_inflight",
		"treesvd_http_request_nanos",
		"treesvd_batches_applied_total", // the embedder's registry, same page
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(srv.URL() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: HTTP %d", resp.StatusCode)
	}
}

// TestShutdownAndRestart closes a server and brings a fresh one up on the
// same embedder: the second server serves normally, with its own HTTP
// series starting from zero.
func TestShutdownAndRestart(t *testing.T) {
	emb, srv := newTestServer(t, treesvd.Config{Dim: 4, RMax: 1e-3, MaxNodes: 64})
	c := client.New(srv.URL(), client.WithRetries(0))
	if _, err := c.Version(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Version(context.Background()); err == nil {
		t.Fatal("request succeeded after shutdown")
	}

	srv2 := server.New(emb, server.Options{})
	if err := srv2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	c2 := client.New(srv2.URL(), client.WithRetries(0))
	ver, err := c2.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ver.Version != emb.Version() {
		t.Fatalf("restarted server serves version %d, want %d", ver.Version, emb.Version())
	}
	if _, err := c2.ApplyEvents(context.Background(), []treesvd.Event{{U: 40, V: 0, Type: treesvd.Insert}}); err != nil {
		t.Fatalf("ingest after restart: %v", err)
	}
	rr := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := `treesvd_http_requests_total{endpoint="version"} 1` + "\n"; !strings.Contains(rr.Body.String(), want) {
		t.Fatalf("restarted server's /metrics lacks %q: its counters must start at zero", want)
	}
}

// TestVersionDoesNotWaitForIngest holds a batch inside the update lock
// (its trace hook blocks at TraceBatchStart) and asks for the version:
// the answer comes from the pinned snapshot, so it must not wait for the
// batch.
func TestVersionDoesNotWaitForIngest(t *testing.T) {
	emb, srv := newTestServer(t, treesvd.Config{Dim: 4, RMax: 1e-3, MaxNodes: 64})
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	emb.SetTraceHook(func(ev treesvd.TraceEvent) {
		if ev.Kind == treesvd.TraceBatchStart {
			once.Do(func() { close(entered); <-release })
		}
	})
	applied := make(chan error, 1)
	go func() {
		_, err := emb.ApplyEvents(context.Background(), []treesvd.Event{{U: 40, V: 3, Type: treesvd.Insert}})
		applied <- err
	}()
	<-entered
	defer func() {
		close(release)
		if err := <-applied; err != nil {
			t.Errorf("held batch: %v", err)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	ver, err := client.New(srv.URL(), client.WithRetries(0)).Version(ctx)
	if err != nil {
		t.Fatalf("version while a batch holds the update lock: %v", err)
	}
	if snap := emb.Snapshot(); ver.Version != snap.Version() || ver.NumEdges != snap.NumEdges() {
		t.Fatalf("version = %+v, want the published snapshot's version %d / %d edges",
			ver, snap.Version(), snap.NumEdges())
	}
}

// TestVersionReportsItsOwnEdgeCount cancels a batch after the graph has
// advanced (the hook cancels its ctx at TraceBatchStart, so the PPR
// repair aborts and nothing is published): /v1/version must still report
// the edge count of the version it names, not the live graph's.
func TestVersionReportsItsOwnEdgeCount(t *testing.T) {
	g := buildGraph(rand.New(rand.NewSource(11)), 40, 160)
	emb, srv := newTestServerOn(t, g, treesvd.Config{Dim: 4, RMax: 1e-3, MaxNodes: 64})
	c := client.New(srv.URL(), client.WithRetries(0))
	before, err := c.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emb.SetTraceHook(func(ev treesvd.TraceEvent) {
		if ev.Kind == treesvd.TraceBatchStart {
			cancel()
		}
	})
	batch := []treesvd.Event{{U: 40, V: 3, Type: treesvd.Insert}, {U: 3, V: 41, Type: treesvd.Insert}}
	if _, err := emb.ApplyEvents(ctx, batch); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if got := g.NumEdges(); got != before.NumEdges+len(batch) {
		t.Fatalf("live graph has %d edges, want %d: the cancelled batch must have advanced it", got, before.NumEdges+len(batch))
	}

	after, err := c.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version || after.NumEdges != before.NumEdges || after.NumNodes != before.NumNodes {
		t.Fatalf("after a cancelled batch /v1/version = %+v, want version %d as published: %d nodes, %d edges",
			after, before.Version, before.NumNodes, before.NumEdges)
	}
}

// TestShutdownDrainsInFlight holds a streaming ingest request open across
// Shutdown and checks the drain lets it finish cleanly instead of cutting
// the connection.
func TestShutdownDrainsInFlight(t *testing.T) {
	emb, srv := newTestServer(t, treesvd.Config{Dim: 4, RMax: 1e-3, MaxNodes: 128})
	c := client.New(srv.URL(), client.WithRetries(0))

	// A body that trickles in: the request is in flight when Shutdown
	// starts, and completes only after the last frame arrives.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, srv.URL()+"/v1/events", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-treesvd-frame")
	type postResult struct {
		status int
		err    error
	}
	posted := make(chan postResult, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			posted <- postResult{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		posted <- postResult{status: resp.StatusCode}
	}()

	// First frame goes through before shutdown begins.
	v0 := emb.Version()
	frame := encodeEventFrame(t, []treesvd.Event{{U: 40, V: 1, Type: treesvd.Insert}})
	if _, err := pw.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitForVersionAbove(t, emb, v0)

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(ctx) }()

	// While draining, finish the in-flight request.
	time.Sleep(20 * time.Millisecond)
	if _, err := pw.Write(encodeEventFrame(t, []treesvd.Event{{U: 41, V: 2, Type: treesvd.Insert}})); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	res := <-posted
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("in-flight ingest during drain: status=%d err=%v, want clean 200", res.status, res.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := c.Version(context.Background()); err == nil {
		t.Fatal("server still accepting requests after drain")
	}
}

// encodeEventFrame builds one binary ingest frame.
func encodeEventFrame(t *testing.T, events []treesvd.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, wire.EncodeEvents(events)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitForVersionAbove(t *testing.T, emb *treesvd.Embedder, v uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for emb.Version() <= v {
		if time.Now().After(deadline) {
			t.Fatalf("version stuck at %d", emb.Version())
		}
		time.Sleep(time.Millisecond)
	}
}
