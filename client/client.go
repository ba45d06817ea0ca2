// Package client is the typed Go SDK for the treesvd serving layer
// (package server): Recommend, Embedding, RightEmbedding, Version and
// streaming ApplyEvents over HTTP, with context plumbing, per-attempt
// timeouts, retries with exponential backoff for idempotent reads, and
// typed error mapping — a 404 for a non-subset source comes back as the
// same *treesvd.NotInSubsetError the in-process facade returns, so code
// migrating from embedding the library to calling the service keeps its
// errors.As branches.
//
// Reads default to JSON and switch to the compact binary frame codec
// with WithBinary(true); ingest always sends binary frames (one frame
// per batch) because that is the only streaming form. Writes are never
// retried by the SDK — ApplyEvents is not idempotent; callers own
// replay decisions (or use the durable layer's WAL on the server side).
//
// Retries respect the caller's context deadline as a budget: the SDK
// never sleeps a backoff past it, honors the server's Retry-After hint
// when admission control sheds a request (503, *treesvd.OverloadError),
// and does not retry a degraded server (503, *treesvd.DegradedError) —
// that one needs an operator, not more traffic. See Client.get's policy
// comment for the full contract.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/wire"
)

// APIError is a server response the SDK could not map to one of the
// facade's typed errors: transport-level failures excluded, it carries
// the HTTP status, the server's error kind, and its message.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Kind is the machine-readable error kind from the response body
	// ("bad_request", "internal", ...), empty if the body was unreadable.
	Kind string
	// Message is the server's error string.
	Message string
}

// Error formats the status, kind and message.
func (e *APIError) Error() string {
	return fmt.Sprintf("treesvd client: HTTP %d (%s): %s", e.Status, e.Kind, e.Message)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (pooling,
// proxies, TLS). The default client has a 30s overall timeout.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times an idempotent read is retried after a
// transport error or a 5xx (default 2; 0 disables — exactly one attempt
// always). When the call's context carries a deadline and retries are
// enabled, the deadline replaces the count as the budget: attempts
// continue while their backoffs fit before it. Writes are never
// retried.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base and cap of the exponential retry backoff
// (defaults 50ms and 1s): attempt i sleeps min(base<<i, max).
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxBackoff = base, max }
}

// WithBinary switches bulk reads (Recommend, Embedding, RightEmbedding)
// to the compact binary frame codec.
func WithBinary(on bool) Option { return func(c *Client) { c.binary = on } }

// Client talks to one treesvd server. It is safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	retries    int
	backoff    time.Duration
	maxBackoff time.Duration
	binary     bool
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         &http.Client{Timeout: 30 * time.Second},
		retries:    2,
		backoff:    50 * time.Millisecond,
		maxBackoff: time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Version mirrors the server's GET /v1/version response.
type Version struct {
	Version    uint64
	NumNodes   int
	NumEdges   int
	SubsetSize int
}

// Recommendations is one Recommend result: the ranked candidates and the
// snapshot version they were scored at.
type Recommendations struct {
	Version uint64
	Source  int32
	Recs    []treesvd.Recommendation
}

// Matrix is one embedding read: row-major rows frozen at Version, with
// Nodes naming the graph node each row embeds.
type Matrix struct {
	Version uint64
	Nodes   []int32
	Rows    [][]float64
}

// ApplyResult reports one ingest call: batches/events accepted, level-1
// blocks re-factored, and the snapshot version after the last batch.
type ApplyResult struct {
	Batches int
	Events  int
	Rebuilt int
	Version uint64
}

// Version fetches the current snapshot version and graph shape.
func (c *Client) Version(ctx context.Context) (Version, error) {
	var dto wire.VersionDTO
	if err := c.getJSON(ctx, "/v1/version", &dto); err != nil {
		return Version{}, err
	}
	return Version{
		Version:    dto.Version,
		NumNodes:   dto.NumNodes,
		NumEdges:   dto.NumEdges,
		SubsetSize: dto.SubsetSize,
	}, nil
}

// Recommend fetches the top-k candidates for subset node source. The
// facade's k contract crosses the wire: k <= 0 returns a
// *treesvd.InvalidKError, a non-subset source a
// *treesvd.NotInSubsetError, and an oversized k truncates.
func (c *Client) Recommend(ctx context.Context, source int32, k int) (Recommendations, error) {
	path := "/v1/recommend?source=" + strconv.Itoa(int(source)) + "&k=" + strconv.Itoa(k)
	if c.binary {
		payload, err := c.getFrame(ctx, path)
		if err != nil {
			return Recommendations{}, err
		}
		version, src, wrecs, err := wire.DecodeRecs(payload)
		if err != nil {
			return Recommendations{}, err
		}
		out := Recommendations{Version: version, Source: src, Recs: make([]treesvd.Recommendation, len(wrecs))}
		for i, rc := range wrecs {
			out.Recs[i] = treesvd.Recommendation{Node: rc.Node, Score: rc.Score}
		}
		return out, nil
	}
	var dto wire.RecommendDTO
	if err := c.getJSON(ctx, path, &dto); err != nil {
		return Recommendations{}, err
	}
	out := Recommendations{Version: dto.Version, Source: dto.Source, Recs: make([]treesvd.Recommendation, len(dto.Recommendations))}
	for i, rc := range dto.Recommendations {
		out.Recs[i] = treesvd.Recommendation{Node: rc.Node, Score: rc.Score}
	}
	return out, nil
}

// Embedding fetches the whole |S|×d subset embedding.
func (c *Client) Embedding(ctx context.Context) (Matrix, error) {
	return c.matrix(ctx, "/v1/embedding")
}

// EmbeddingRow fetches one subset node's embedding row; a non-subset
// node returns a *treesvd.NotInSubsetError.
func (c *Client) EmbeddingRow(ctx context.Context, node int32) (Matrix, error) {
	return c.matrix(ctx, "/v1/embedding?node="+strconv.Itoa(int(node)))
}

// RightEmbedding fetches the whole n×d right embedding (n = the node
// count of the served snapshot). Consider WithBinary for this one: the
// JSON form of a large Y is several times the frame size.
func (c *Client) RightEmbedding(ctx context.Context) (Matrix, error) {
	return c.matrix(ctx, "/v1/rightembedding")
}

// RightEmbeddingRow fetches one node's right-embedding row; a node the
// served snapshot has not reached returns a *treesvd.NodeRangeError.
func (c *Client) RightEmbeddingRow(ctx context.Context, node int32) (Matrix, error) {
	return c.matrix(ctx, "/v1/rightembedding?node="+strconv.Itoa(int(node)))
}

// matrix fetches one embedding endpoint in the negotiated codec.
func (c *Client) matrix(ctx context.Context, path string) (Matrix, error) {
	if c.binary {
		payload, err := c.getFrame(ctx, path)
		if err != nil {
			return Matrix{}, err
		}
		version, rows, err := wire.DecodeMatrix(payload)
		if err != nil {
			return Matrix{}, err
		}
		return Matrix{Version: version, Rows: rows}, nil
	}
	var dto wire.MatrixDTO
	if err := c.getJSON(ctx, path, &dto); err != nil {
		return Matrix{}, err
	}
	return Matrix{Version: dto.Version, Nodes: dto.Nodes, Rows: dto.Rows}, nil
}

// ApplyEvents sends one event batch. It is not retried (ingest is not
// idempotent); an event outside the server embedder's capacity returns a
// *treesvd.NodeRangeError with nothing applied, the same all-or-nothing
// batch contract the facade gives in process.
func (c *Client) ApplyEvents(ctx context.Context, events []treesvd.Event) (ApplyResult, error) {
	return c.ApplyEventBatches(ctx, [][]treesvd.Event{events})
}

// ApplyEventBatches streams several batches in one request — one binary
// frame per batch, applied in order as they arrive. On error, batches
// before the failing one stay applied (the same prefix semantics as WAL
// replay); the returned error is typed.
func (c *Client) ApplyEventBatches(ctx context.Context, batches [][]treesvd.Event) (ApplyResult, error) {
	var body bytes.Buffer
	for _, b := range batches {
		if err := wire.WriteFrame(&body, wire.EncodeEvents(b)); err != nil {
			return ApplyResult{}, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/events", &body)
	if err != nil {
		return ApplyResult{}, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.ContentType)
	if deadline, ok := ctx.Deadline(); ok {
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			req.Header.Set(wire.TimeoutHeader, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return ApplyResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ApplyResult{}, decodeError(resp)
	}
	payload, err := wire.ReadFrame(resp.Body)
	if err != nil {
		return ApplyResult{}, err
	}
	res, err := wire.DecodeApplyResult(payload)
	if err != nil {
		return ApplyResult{}, err
	}
	return ApplyResult{Batches: res.Batches, Events: res.Events, Rebuilt: res.Rebuilt, Version: res.Version}, nil
}

// getJSON GETs path and decodes a JSON response, with read retries.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	return c.get(ctx, path, "", func(body io.Reader) error {
		return json.NewDecoder(body).Decode(out)
	})
}

// getFrame GETs path and reads one binary frame, with read retries.
func (c *Client) getFrame(ctx context.Context, path string) ([]byte, error) {
	var payload []byte
	err := c.get(ctx, path, wire.ContentType, func(body io.Reader) error {
		var err error
		payload, err = wire.ReadFrame(body)
		return err
	})
	return payload, err
}

// get runs one idempotent read with the retry/backoff policy.
//
// What retries: transport errors, 5xx responses, and torn or corrupt
// payloads (the read is idempotent, so re-fetching a response the
// network mangled is always safe). What never retries: 4xx responses
// (deterministic input errors, returned typed) and a 503 carrying a
// *treesvd.DegradedError — the server needs operator action, more
// traffic is noise.
//
// How many times: without a context deadline, up to c.retries retries
// as configured. With a deadline, the deadline is the budget — attempts
// continue while it lasts, each backoff sleep is taken only if it fits,
// and the loop fails fast with the last real error the moment the next
// wait would cross the deadline; it never burns the caller's remaining
// budget sleeping. A shed response's Retry-After hint floors the
// backoff either way. The remaining budget also rides each request as
// X-Timeout-Ms so the server abandons work the caller gave up on.
func (c *Client) get(ctx context.Context, path, accept string, decode func(io.Reader) error) error {
	var lastErr error
	deadline, hasDeadline := ctx.Deadline()
	attempts := 0
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if c.retries <= 0 {
				break
			}
			if !hasDeadline && attempt > c.retries {
				break
			}
			wait := c.backoffFor(attempt - 1)
			var ove *treesvd.OverloadError
			if errors.As(lastErr, &ove) && ove.RetryAfter > wait {
				wait = ove.RetryAfter // the server's shed hint floors the backoff
			}
			if hasDeadline && time.Now().Add(wait).After(deadline) {
				break // the wait would cross the deadline: fail fast instead
			}
			if err := sleepCtx(ctx, wait); err != nil {
				break // canceled mid-backoff
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
		if err != nil {
			return err
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if hasDeadline {
			if ms := time.Until(deadline).Milliseconds(); ms > 0 {
				req.Header.Set(wire.TimeoutHeader, strconv.FormatInt(ms, 10))
			}
		}
		attempts++
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil && attempts == 1 {
				return ctx.Err() // never got a real answer to report
			}
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			err := decodeError(resp)
			resp.Body.Close()
			var dge *treesvd.DegradedError
			if errors.As(err, &dge) {
				return err
			}
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			err := decodeError(resp)
			resp.Body.Close()
			return err
		}
		err = decode(resp.Body)
		resp.Body.Close()
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("treesvd client: %d attempts failed: %w", attempts, lastErr)
}

// backoffFor returns the sleep before retry i (exponential, capped).
func (c *Client) backoffFor(i int) time.Duration {
	d := c.backoff << i
	if d > c.maxBackoff || d <= 0 {
		d = c.maxBackoff
	}
	return d
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// decodeError maps a non-2xx response to the facade's typed error family
// via the body's machine-readable kind (see internal/wire.ErrorDTO),
// falling back to *APIError for unknown kinds or unreadable bodies.
func decodeError(resp *http.Response) error {
	var dto wire.ErrorDTO
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(data, &dto); err != nil {
		return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	switch dto.Kind {
	case wire.KindInvalidK:
		return &treesvd.InvalidKError{K: dto.K}
	case wire.KindNotInSubset:
		return &treesvd.NotInSubsetError{Node: dto.Node, Subset: dto.Subset}
	case wire.KindNodeRange:
		return &treesvd.NodeRangeError{Index: dto.Index, Node: dto.Node, MaxNodes: dto.MaxNodes}
	case wire.KindOverloaded:
		ra := time.Duration(dto.RetryAfterMs) * time.Millisecond
		if ra == 0 {
			ra = retryAfterHint(resp)
		}
		return &treesvd.OverloadError{Endpoint: dto.Endpoint, RetryAfter: ra}
	case wire.KindDegraded:
		return &treesvd.DegradedError{Reason: dto.Reason}
	}
	return &APIError{Status: resp.StatusCode, Kind: dto.Kind, Message: dto.Error}
}

// retryAfterHint reads the server's backoff hint off the response
// headers: the sub-second X-Retry-After-Ms when present, else the
// standard whole-second Retry-After. Zero when neither parses.
func retryAfterHint(resp *http.Response) time.Duration {
	if raw := resp.Header.Get(wire.RetryAfterHeader); raw != "" {
		if ms, err := strconv.ParseInt(raw, 10, 64); err == nil && ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	if raw := resp.Header.Get("Retry-After"); raw != "" {
		if s, err := strconv.ParseInt(raw, 10, 64); err == nil && s > 0 {
			return time.Duration(s) * time.Second
		}
	}
	return 0
}
