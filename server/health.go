package server

import (
	"net/http"

	"github.com/tree-svd/treesvd/internal/wire"
)

// handleHealthz is the liveness probe: the process is up and the mux is
// answering. It stays 200 while draining or degraded — restarting a
// process that is still serving reads would make either condition worse.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wire.HealthDTO{Status: "ok"})
}

// handleReadyz is the readiness probe: 200 only while the server should
// receive new traffic — Shutdown has not begun and the ingest path is not
// sealed in degraded mode. (A backend always has a published snapshot:
// New and Open publish before they return.) The body always says why
// not, so an operator curling the endpoint needs no logs.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	dto := wire.HealthDTO{Status: "ready"}
	status := http.StatusOK
	if s.draining.Load() {
		dto.Status, status = "draining", http.StatusServiceUnavailable
	} else if err := s.b.Degraded(); err != nil {
		dto.Status, dto.Reason, status = "degraded", err.Error(), http.StatusServiceUnavailable
	}
	writeJSON(w, status, dto)
}
