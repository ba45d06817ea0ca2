package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	treesvd "github.com/tree-svd/treesvd"
)

// TestPanickingHandlerReleasesSlot: a handler panic propagates to
// net/http, but the admission slot and the in-flight gauge are given back
// on the way out — more panics than the gate has slots leave it able to
// admit.
func TestPanickingHandlerReleasesSlot(t *testing.T) {
	g := treesvd.NewGraphN(8)
	for v := int32(0); v < 8; v++ {
		g.InsertEdge(v, (v+1)%8)
	}
	emb, err := treesvd.New(g, []int32{0, 4}, treesvd.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(emb, Options{})
	SetGate(s, "recommend", 2, 0, queueWait, retryAfter)
	req := httptest.NewRequest(http.MethodGet, "/v1/recommend?source=0", nil)

	boom := s.instrument("recommend", func(http.ResponseWriter, *http.Request) { panic("boom") })
	for i := 0; i < 5; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("the handler's panic did not propagate")
				}
			}()
			boom(httptest.NewRecorder(), req)
		}()
	}
	if got := s.met.inflight.Load(); got != 0 {
		t.Fatalf("treesvd_http_inflight = %d after the panics, want 0", got)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("recommend after the panics: HTTP %d, want 200 (the gate leaked its slots)", rec.Code)
	}
}
