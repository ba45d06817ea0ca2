package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/wire"
)

// fakeServer counts attempts and serves a scripted sequence of statuses
// before succeeding, to pin down the retry policy without a real server.
func fakeServer(t *testing.T, failures int, failStatus int, handler http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := attempts.Add(1)
		if int(n) <= failures {
			w.WriteHeader(failStatus)
			json.NewEncoder(w).Encode(wire.ErrorDTO{Error: "scripted failure", Kind: wire.KindInternal})
			return
		}
		handler(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &attempts
}

func versionHandler(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode(wire.VersionDTO{Version: 42, NumNodes: 10})
}

func TestRetriesOn5xxThenSucceeds(t *testing.T) {
	ts, attempts := fakeServer(t, 2, http.StatusInternalServerError, versionHandler)
	c := New(ts.URL, WithRetries(2))
	ver, err := c.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ver.Version != 42 || attempts.Load() != 3 {
		t.Fatalf("version=%d attempts=%d, want 42 after exactly 3 attempts", ver.Version, attempts.Load())
	}
}

func TestRetriesExhausted(t *testing.T) {
	ts, attempts := fakeServer(t, 100, http.StatusServiceUnavailable, versionHandler)
	c := New(ts.URL, WithRetries(2))
	_, err := c.Version(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("want *APIError wrapping 503, got %v", err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", attempts.Load())
	}
}

// A 4xx is a deterministic input error: no retry, and the typed error
// comes back out.
func TestNoRetryOn4xx(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(wire.ErrorDTO{Error: "bad k", Kind: wire.KindInvalidK, K: -3})
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(5))
	_, err := c.Recommend(context.Background(), 0, -3)
	var ike *treesvd.InvalidKError
	if !errors.As(err, &ike) || ike.K != -3 {
		t.Fatalf("want *InvalidKError{K:-3}, got %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("4xx retried: %d attempts", attempts.Load())
	}
}

// Writes are never retried — ApplyEvents is not idempotent.
func TestNoRetryOnWrite(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(wire.ErrorDTO{Error: "boom", Kind: wire.KindInternal})
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(5))
	_, err := c.ApplyEvents(context.Background(), []treesvd.Event{{U: 0, V: 1, Type: treesvd.Insert}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("want *APIError 500, got %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("write retried: %d attempts", attempts.Load())
	}
}

// TestErrorKindMapping reconstructs the whole typed-error family from
// response bodies, and degrades unknown kinds to *APIError.
func TestErrorKindMapping(t *testing.T) {
	cases := []struct {
		name   string
		status int
		dto    wire.ErrorDTO
		check  func(error) bool
	}{
		{"invalid_k", 400, wire.ErrorDTO{Kind: wire.KindInvalidK, K: 0}, func(err error) bool {
			var e *treesvd.InvalidKError
			return errors.As(err, &e) && e.K == 0
		}},
		{"not_in_subset", 404, wire.ErrorDTO{Kind: wire.KindNotInSubset, Node: 9, Subset: 4}, func(err error) bool {
			var e *treesvd.NotInSubsetError
			return errors.As(err, &e) && e.Node == 9 && e.Subset == 4
		}},
		{"node_range", 400, wire.ErrorDTO{Kind: wire.KindNodeRange, Index: 2, Node: 77, MaxNodes: 50}, func(err error) bool {
			var e *treesvd.NodeRangeError
			return errors.As(err, &e) && e.Index == 2 && e.Node == 77 && e.MaxNodes == 50
		}},
		{"unknown_kind", 418, wire.ErrorDTO{Kind: "teapot", Error: "short and stout"}, func(err error) bool {
			var e *APIError
			return errors.As(err, &e) && e.Status == 418 && e.Kind == "teapot" && e.Message == "short and stout"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				json.NewEncoder(w).Encode(tc.dto)
			}))
			defer ts.Close()
			c := New(ts.URL, WithRetries(0))
			_, err := c.Version(context.Background())
			if !tc.check(err) {
				t.Fatalf("mapping failed: got %v", err)
			}
		})
	}
}

// A non-JSON error body (a proxy's HTML 502 page, say) still surfaces as
// an *APIError rather than a decode failure.
func TestUnparsableErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte("<html>bad gateway</html>"))
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(0))
	_, err := c.Version(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("want *APIError 502, got %v", err)
	}
}

// A backoff that cannot fit inside the caller's deadline is never
// slept: the client fails fast with the last real error instead of
// burning the remaining budget waiting for a retry it cannot make.
func TestDeadlineCutsBackoffShort(t *testing.T) {
	ts, attempts := fakeServer(t, 100, http.StatusInternalServerError, versionHandler)
	c := New(ts.URL, WithRetries(10))
	ctx, cancel := context.WithTimeout(context.Background(), backoffBase/2)
	defer cancel()
	start := time.Now()
	_, err := c.Version(ctx)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("want the last *APIError 500, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("took %v: the backoff was slept instead of skipped", elapsed)
	}
	if attempts.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 before the deadline", attempts.Load())
	}
}

// With a deadline, the deadline is the retry budget: attempts continue
// past the configured retry count while backoffs still fit.
func TestDeadlineExtendsAttempts(t *testing.T) {
	ts, attempts := fakeServer(t, 4, http.StatusInternalServerError, versionHandler)
	c := New(ts.URL, WithRetries(1))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ver, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Version != 42 || attempts.Load() != 5 {
		t.Fatalf("version=%d attempts=%d, want 42 after 5 attempts under the deadline budget", ver.Version, attempts.Load())
	}
}

// WithRetries(0) means exactly one attempt regardless of deadline —
// load generators rely on it to observe sheds instead of hiding them.
func TestRetriesZeroSingleAttempt(t *testing.T) {
	ts, attempts := fakeServer(t, 100, http.StatusInternalServerError, versionHandler)
	c := New(ts.URL, WithRetries(0))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := c.Version(ctx)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || attempts.Load() != 1 {
		t.Fatalf("err=%v attempts=%d, want one *APIError attempt", err, attempts.Load())
	}
}

// A shed 503 comes back as *treesvd.OverloadError and its body's
// RetryAfterMs hint floors the backoff before the retry.
func TestOverloadRetryAfterHonored(t *testing.T) {
	const hintMs = 120
	var attempts atomic.Int64
	var gap atomic.Int64
	var last atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 {
			gap.Store(now - prev)
		}
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(wire.ErrorDTO{
				Error: "shed", Kind: wire.KindOverloaded, Endpoint: "recommend", RetryAfterMs: hintMs,
			})
			return
		}
		versionHandler(w, r)
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(2))
	ver, err := c.Version(context.Background())
	if err != nil || ver.Version != 42 {
		t.Fatalf("version=%d err=%v, want a clean retry", ver.Version, err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("attempts = %d, want 2", attempts.Load())
	}
	if got := time.Duration(gap.Load()); got < hintMs*time.Millisecond {
		t.Fatalf("retry after %v, want at least the server's %dms hint", got, hintMs)
	}
}

// The shed error itself is typed when retries run out.
func TestOverloadErrorTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(wire.ErrorDTO{
			Error: "shed", Kind: wire.KindOverloaded, Endpoint: "recommend", RetryAfterMs: 50,
		})
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(0))
	_, err := c.Version(context.Background())
	var ove *treesvd.OverloadError
	if !errors.As(err, &ove) || ove.Endpoint != "recommend" || ove.RetryAfter != 50*time.Millisecond {
		t.Fatalf("want *OverloadError{recommend, 50ms}, got %v", err)
	}
}

// A degraded 503 is not retried: the server needs an operator, not
// more traffic.
func TestNoRetryOnDegraded(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(wire.ErrorDTO{
			Error: "sealed", Kind: wire.KindDegraded, Reason: "wal append failed",
		})
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(5))
	_, err := c.Version(context.Background())
	var dge *treesvd.DegradedError
	if !errors.As(err, &dge) || dge.Reason != "wal append failed" {
		t.Fatalf("want *DegradedError, got %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("degraded 503 retried: %d attempts", attempts.Load())
	}
}

// A response that arrives torn (connection cut mid-body) retries like
// any transport failure — the read is idempotent.
func TestRetryOnTornResponse(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Content-Length", "1000")
			w.Write([]byte(`{"version":`)) // then the handler returns: torn body
			return
		}
		versionHandler(w, r)
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(2))
	ver, err := c.Version(context.Background())
	if err != nil || ver.Version != 42 {
		t.Fatalf("version=%d err=%v attempts=%d, want a clean retry", ver.Version, err, attempts.Load())
	}
}

func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{50, 100, 200, 400, 800, 1000, 1000}
	for i, w := range want {
		if got := backoffFor(i); got != w*time.Millisecond {
			t.Errorf("backoffFor(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// Shift overflow saturates at the cap rather than going negative.
	if got := backoffFor(62); got != backoffCap {
		t.Errorf("backoffFor(62) = %v, want cap", got)
	}
}
