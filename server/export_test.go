package server

import "time"

// SetGate replaces endpoint's admission gate with one of slots in-flight
// requests, depth waiters, a queue wait of wait and a Retry-After hint of
// retryAfter. Call it after New and before the first request.
func SetGate(s *Server, endpoint string, slots, depth int, wait, retryAfter time.Duration) {
	g := s.gates[endpoint]
	*g = *newGate(endpoint, slots, depth, wait, retryAfter, g.queued)
}
