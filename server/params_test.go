package server_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/wire"
)

// TestOversizedKOverHTTP: k=MaxInt truncates to every candidate, as the
// Recommend contract says, instead of panicking the handler — which used
// to leak one admission slot per request, so that after ReadSlots (64) of
// them the endpoint answered 503 until restart.
func TestOversizedKOverHTTP(t *testing.T) {
	emb, srv := newTestServer(t, treesvd.Config{Dim: 4, RMax: 1e-3, MaxNodes: 64})
	want, err := emb.Snapshot().Recommend(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/recommend?source=3&k=%d", srv.URL(), math.MaxInt)
	for i := 0; i < 70; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		var dto wire.RecommendDTO
		err = json.NewDecoder(resp.Body).Decode(&dto)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || len(dto.Recommendations) != len(want) {
			t.Fatalf("request %d: HTTP %d, %d recommendations (decode: %v), want 200 with all %d candidates",
				i, resp.StatusCode, len(dto.Recommendations), err, len(want))
		}
	}
}

// TestNodeIDsDoNotWrap: a node parameter outside int32 is a 400, not the
// id it wraps around to (4294967299 = 2³² + 3, and 3 is a subset node).
func TestNodeIDsDoNotWrap(t *testing.T) {
	_, srv := newTestServer(t, treesvd.Config{Dim: 4, RMax: 1e-3, MaxNodes: 64})
	for _, path := range []string{
		"/v1/recommend?source=4294967299",
		"/v1/recommend?source=-4294967293",
		"/v1/embedding?node=4294967299",
		"/v1/rightembedding?node=4294967299",
	} {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		var dto wire.ErrorDTO
		err = json.NewDecoder(resp.Body).Decode(&dto)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || dto.Kind != wire.KindBadRequest {
			t.Errorf("%s: HTTP %d kind %q (decode: %v), want 400 %q", path, resp.StatusCode, dto.Kind, err, wire.KindBadRequest)
		}
	}
}
