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
	"strings"
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
	g := buildGraph(rand.New(rand.NewSource(11)), 40, 160)
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
	if ver.NumEdges != emb.Graph().NumEdges() {
		t.Errorf("version.NumEdges = %d, want %d", ver.NumEdges, emb.Graph().NumEdges())
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
	if !binary {
		for i, v := range testSubset {
			if x.Nodes[i] != v {
				t.Fatalf("embedding nodes[%d] = %d, want %d", i, x.Nodes[i], v)
			}
		}
	}

	// One embedding row.
	row, err := c.EmbeddingRow(ctx, testSubset[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Rows) != 1 || !sameMatrix(row.Rows, snap.Embedding()[2:3]) {
		t.Fatal("embedding row mismatch")
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
	yrow, err := c.RightEmbeddingRow(ctx, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(yrow.Rows) != 1 || !sameMatrix(yrow.Rows, wantY[17:18]) {
		t.Fatal("right embedding row mismatch")
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

// TestIngestJSONBody exercises the raw JSON ingest form (no SDK): a
// well-formed batch applies, an unknown event type is a typed 400.
func TestIngestJSONBody(t *testing.T) {
	emb, srv := newTestServer(t, treesvd.Config{Dim: 4, RMax: 1e-3, MaxNodes: 64})
	before := emb.Version()

	body := `{"events":[{"u":40,"v":1,"type":"insert"},{"u":1,"v":0,"type":"delete"}]}`
	resp, err := http.Post(srv.URL()+"/v1/events", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", resp.StatusCode, data)
	}
	var apply struct {
		Batches int    `json:"batches"`
		Events  int    `json:"events"`
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(data, &apply); err != nil {
		t.Fatal(err)
	}
	if apply.Batches != 1 || apply.Events != 2 || apply.Version <= before {
		t.Fatalf("apply = %+v, want 1 batch / 2 events / version > %d", apply, before)
	}

	resp, err = http.Post(srv.URL()+"/v1/events", "application/json",
		strings.NewReader(`{"events":[{"u":0,"v":1,"type":"upsert"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte(`"bad_request"`)) {
		t.Fatalf("unknown event type: HTTP %d: %s, want 400 bad_request", resp.StatusCode, data)
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

	resp, err := http.Get(srv.URL() + "/metrics?format=prometheus")
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
// same embedder: the second New must reuse the registered metric set (a
// re-registration would panic) and serve normally.
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
