package server

import (
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

// wantsBinary reports whether the request negotiated the binary frame
// codec for the response.
func wantsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

// writeJSON marshals v with the right content type.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeFrame writes one binary frame response.
func writeFrame(w http.ResponseWriter, payload []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	wire.WriteFrame(w, payload)
}

// writeError maps an error to its HTTP status and typed JSON body. The
// error family of the facade crosses the wire losslessly: the client
// package reverses this mapping.
func writeError(w http.ResponseWriter, err error) int {
	dto := wire.ErrorDTO{Error: err.Error(), Kind: wire.KindInternal}
	status := http.StatusInternalServerError
	var (
		ike *treesvd.InvalidKError
		nis *treesvd.NotInSubsetError
		nre *treesvd.NodeRangeError
		ove *treesvd.OverloadError
		dge *treesvd.DegradedError
		bad *badRequestError
	)
	switch {
	case errors.As(err, &ike):
		status = http.StatusBadRequest
		dto.Kind, dto.K = wire.KindInvalidK, ike.K
	case errors.As(err, &nis):
		status = http.StatusNotFound
		dto.Kind, dto.Node, dto.Subset = wire.KindNotInSubset, nis.Node, nis.Subset
	case errors.As(err, &nre):
		status = http.StatusBadRequest
		dto.Kind, dto.Index, dto.Node, dto.MaxNodes = wire.KindNodeRange, nre.Index, nre.Node, nre.MaxNodes
	case errors.As(err, &ove):
		status = http.StatusServiceUnavailable
		dto.Kind, dto.Endpoint = wire.KindOverloaded, ove.Endpoint
		if ra := ove.RetryAfter; ra > 0 {
			dto.RetryAfterMs = max(ra.Milliseconds(), 1)
			// RFC 9110 Retry-After is whole seconds; round up so a naive
			// client never retries early. X-Retry-After-Ms keeps the
			// sub-second hint for our own SDK.
			w.Header().Set("Retry-After", strconv.FormatInt(int64((ra+time.Second-1)/time.Second), 10))
			w.Header().Set(wire.RetryAfterHeader, strconv.FormatInt(dto.RetryAfterMs, 10))
		}
	case errors.As(err, &dge):
		status = http.StatusServiceUnavailable
		dto.Kind, dto.Reason = wire.KindDegraded, dge.Reason
	case errors.As(err, &bad):
		status = http.StatusBadRequest
		dto.Kind = wire.KindBadRequest
	}
	writeJSON(w, status, dto)
	return status
}

// badRequestError marks malformed queries/bodies that have no richer
// typed form (missing parameter, unparsable number, bad JSON).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// statusWriter remembers the status code for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with admission control, caller-deadline
// propagation, the per-endpoint request counter, latency histogram,
// error counter and the shared in-flight gauge.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	em := s.met.endpoint(endpoint)
	g := s.gates[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Fold the caller's deadline budget into the handler context:
		// work the caller has given up on is abandoned server-side too,
		// and the admission queue will not hold a request past it.
		if raw := r.Header.Get(wire.TimeoutHeader); raw != "" {
			if ms, err := strconv.ParseInt(raw, 10, 64); err == nil && ms > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if release, err := g.acquire(r.Context()); err != nil {
			em.shed.Inc()
			if s.trace != nil {
				s.trace(treesvd.TraceEvent{Kind: treesvd.TraceShed, Endpoint: endpoint, Block: -1, Err: err})
			}
			writeError(sw, err)
		} else {
			s.met.inflight.Add(1)
			// Deferred: a handler panic unwinds to net/http, which recovers
			// it per connection — the slot and the gauge must not leak.
			defer func() {
				s.met.inflight.Add(-1)
				release()
			}()
			h(sw, r)
		}
		em.requests.Inc()
		if sw.status >= 400 {
			em.errors.Inc()
		}
		em.nanos.ObserveSince(start)
	}
}

// intParam parses an optional integer query parameter, def when absent.
func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("query parameter %q: %v", name, err)
	}
	return v, nil
}

// nodeParam parses a required node-id query parameter. Node ids are
// int32; a value outside that range is malformed, never wrapped around
// into some other node's id.
func nodeParam(r *http.Request, name string) (int32, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, badRequest("missing required query parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, badRequest("query parameter %q: %v", name, err)
	}
	return int32(v), nil
}

// handleVersion serves the published snapshot version plus the live
// graph shape (via the race-safe GraphView — the reason that view
// exists).
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	snap := s.e.Snapshot()
	g := s.e.Graph()
	writeJSON(w, http.StatusOK, wire.VersionDTO{
		Version:    snap.Version(),
		NumNodes:   snap.NumNodes(),
		NumEdges:   g.NumEdges(),
		SubsetSize: len(s.subset),
	})
}

// handleRecommend serves top-k candidates for one subset source, JSON or
// binary, entirely from one pinned snapshot.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	src, err := nodeParam(r, "source")
	if err != nil {
		writeError(w, err)
		return
	}
	k, err := intParam(r, "k", 10)
	if err != nil {
		writeError(w, err)
		return
	}
	snap := s.e.Snapshot()
	recs, err := snap.Recommend(src, k)
	if err != nil {
		writeError(w, err)
		return
	}
	if wantsBinary(r) {
		wrecs := make([]wire.Rec, len(recs))
		for i, rc := range recs {
			wrecs[i] = wire.Rec{Node: rc.Node, Score: rc.Score}
		}
		writeFrame(w, wire.EncodeRecs(snap.Version(), src, wrecs))
		return
	}
	dto := wire.RecommendDTO{
		Version:         snap.Version(),
		Source:          src,
		Recommendations: make([]wire.RecDTO, len(recs)),
	}
	for i, rc := range recs {
		dto.Recommendations[i] = wire.RecDTO{Node: rc.Node, Score: rc.Score}
	}
	writeJSON(w, http.StatusOK, dto)
}

// handleEmbedding serves the |S|×d subset embedding, or one row with
// ?node=S (404 with a typed body when S is not a subset node).
func (s *Server) handleEmbedding(w http.ResponseWriter, r *http.Request) {
	snap := s.e.Snapshot()
	if raw := r.URL.Query().Get("node"); raw != "" {
		node, err := nodeParam(r, "node")
		if err != nil {
			writeError(w, err)
			return
		}
		row, ok := s.rowOf[node]
		if !ok {
			writeError(w, &treesvd.NotInSubsetError{Node: node, Subset: len(s.subset)})
			return
		}
		rows := snap.Embedding()[row : row+1]
		s.writeMatrix(w, r, snap.Version(), []int32{node}, rows)
		return
	}
	s.writeMatrix(w, r, snap.Version(), snap.Subset(), snap.Embedding())
}

// handleRightEmbedding serves the n×d right embedding, or one row with
// ?node=V for any node that exists as of the pinned snapshot. Rows the
// MaxNodes headroom reserves beyond the snapshot's node count are not
// addressable — asking for one is a *NodeRangeError (400), matching the
// ingest-side capacity contract.
func (s *Server) handleRightEmbedding(w http.ResponseWriter, r *http.Request) {
	snap := s.e.Snapshot()
	y := snap.RightEmbedding()
	n := snap.NumNodes()
	if n < len(y) {
		y = y[:n]
	}
	if raw := r.URL.Query().Get("node"); raw != "" {
		node, err := nodeParam(r, "node")
		if err != nil {
			writeError(w, err)
			return
		}
		if node < 0 || int(node) >= len(y) {
			writeError(w, &treesvd.NodeRangeError{Node: node, MaxNodes: len(y)})
			return
		}
		s.writeMatrix(w, r, snap.Version(), []int32{node}, y[node:node+1])
		return
	}
	nodes := make([]int32, len(y))
	for i := range nodes {
		nodes[i] = int32(i)
	}
	s.writeMatrix(w, r, snap.Version(), nodes, y)
}

// writeMatrix writes an embedding response in the negotiated codec.
func (s *Server) writeMatrix(w http.ResponseWriter, r *http.Request, version uint64, nodes []int32, rows [][]float64) {
	if wantsBinary(r) {
		writeFrame(w, wire.EncodeMatrix(version, rows))
		return
	}
	writeJSON(w, http.StatusOK, wire.MatrixDTO{Version: version, Nodes: nodes, Rows: rows})
}

// handleIngest applies event batches. A JSON body is one batch; a binary
// body (Content-Type: application/x-treesvd-frame) is a stream of event
// frames, each applied as its own batch as it arrives — the request
// doesn't buffer, so an open connection can feed the embedder
// continuously. Batches preceding a failed one stay applied (the same
// prefix semantics as WAL replay); the error response reports the typed
// cause.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var res wire.ApplyResult
	var err error
	if strings.Contains(r.Header.Get("Content-Type"), wire.ContentType) {
		res, err = s.ingestFrames(r)
	} else {
		res, err = s.ingestJSON(r)
	}
	res.Version = s.e.Version()
	if err != nil {
		writeError(w, err)
		return
	}
	s.met.ingestBatches.Add(uint64(res.Batches))
	s.met.ingestEvents.Add(uint64(res.Events))
	if wantsBinary(r) {
		writeFrame(w, wire.EncodeApplyResult(res))
		return
	}
	writeJSON(w, http.StatusOK, wire.ApplyDTO{
		Batches: res.Batches, Events: res.Events, Rebuilt: res.Rebuilt, Version: res.Version,
	})
}

// ingestJSON decodes and applies one JSON batch.
func (s *Server) ingestJSON(r *http.Request) (wire.ApplyResult, error) {
	var res wire.ApplyResult
	var dto wire.IngestDTO
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	if err := dec.Decode(&dto); err != nil {
		return res, badRequest("ingest body: %v", err)
	}
	if len(dto.Events) > s.maxBatch {
		return res, badRequest("batch of %d events exceeds the per-batch cap of %d", len(dto.Events), s.maxBatch)
	}
	events := make([]treesvd.Event, len(dto.Events))
	for i, ev := range dto.Events {
		switch ev.Type {
		case "insert":
			events[i] = treesvd.Event{U: ev.U, V: ev.V, Type: treesvd.Insert}
		case "delete":
			events[i] = treesvd.Event{U: ev.U, V: ev.V, Type: treesvd.Delete}
		default:
			return res, badRequest("event %d: unknown type %q (want \"insert\" or \"delete\")", i, ev.Type)
		}
	}
	rebuilt, err := s.ingest.ApplyEvents(r.Context(), events)
	if err != nil {
		return res, err
	}
	return wire.ApplyResult{Batches: 1, Events: len(events), Rebuilt: rebuilt}, nil
}

// ingestFrames reads binary event frames off the request body and
// applies each as one batch until the stream ends.
func (s *Server) ingestFrames(r *http.Request) (wire.ApplyResult, error) {
	var res wire.ApplyResult
	for {
		payload, err := wire.ReadFrame(r.Body)
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, badRequest("ingest frame %d: %v", res.Batches, err)
		}
		events, err := wire.DecodeEvents(payload)
		if err != nil {
			return res, badRequest("ingest frame %d: %v", res.Batches, err)
		}
		if len(events) > s.maxBatch {
			return res, badRequest("frame %d: batch of %d events exceeds the per-batch cap of %d",
				res.Batches, len(events), s.maxBatch)
		}
		rebuilt, err := s.ingest.ApplyEvents(r.Context(), events)
		if err != nil {
			return res, err
		}
		res.Batches++
		res.Events += len(events)
		res.Rebuilt += rebuilt
	}
}
