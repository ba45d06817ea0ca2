// Package server exposes a treesvd.Embedder, in memory or durable, over
// HTTP: the snapshot-isolated read path (Recommend, Embedding,
// RightEmbedding, Version) plus a streaming ApplyEvents ingest endpoint,
// with the embedder's metric registry, the server's own HTTP series and
// net/http/pprof mounted on the same mux. Read responses are JSON by
// default and switch to the compact binary frame codec (internal/wire)
// by content negotiation, which matters for bulk embedding reads. Ingest
// takes event frames only and answers with one ApplyResult frame.
//
// Endpoints:
//
//	GET  /v1/version                      snapshot version + graph shape
//	GET  /v1/recommend?source=S&k=K       top-k candidates for subset node S
//	GET  /v1/embedding[?node=S]           subset embedding X (or one row)
//	GET  /v1/rightembedding[?node=V]      right embedding Y (or one row)
//	POST /v1/events                       ingest: a stream of binary event
//	                                      frames (each frame = one batch)
//	GET  /metrics                         embedder + server registries
//	                                      (Prometheus text)
//	GET  /debug/pprof/...                 pprof handlers
//
// Reads are lock-free: every request pins the currently published
// Snapshot once and serves entirely from it — the server keeps no copy
// of embedder state — so a response is always internally consistent (its
// version matches its payload) and never waits on ingest. Graceful shutdown stops the listener and drains in-flight
// requests — each keeps serving against the snapshot it pinned.
//
// Typed errors cross the wire: *treesvd.InvalidKError maps to 400,
// *treesvd.NotInSubsetError to 404, *treesvd.NodeRangeError to 400, each
// with a machine-readable kind the client package converts back into the
// same typed error the in-process facade would have returned.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/obs"
)

// Backend is the one handle a Server fronts: a *treesvd.Embedder, whose
// ApplyEvents logs every ingested batch to the WAL first when Create or
// Open made it (tests substitute fakes that embed one). Reads answer from
// Snapshot alone. The server validates no batch itself — the backend's
// up-front validation (Config.MaxNodes) is the contract, and its
// *NodeRangeError maps to HTTP 400. A non-nil Degraded means ingest is
// sealed read-only until the store is closed and reopened; /readyz
// answers 503 meanwhile.
type Backend interface {
	Snapshot() *treesvd.Snapshot
	ApplyEvents(ctx context.Context, events []treesvd.Event) (int, error)
	MetricsRegistry() *treesvd.Registry
	Degraded() error
}

// readHeaderTimeout bounds header parsing per request.
const readHeaderTimeout = 10 * time.Second

// Options configures a Server. The zero value is usable.
type Options struct {
	// MaxBatchEvents caps the events accepted per ingest batch (one event
	// frame); a frame whose length prefix claims more is refused before
	// its body is read. 0 means the default of 1<<20.
	MaxBatchEvents int
}

// Server serves one Backend. Create with New, start with Start (or
// mount Handler on infrastructure you own), stop with Shutdown.
type Server struct {
	b        Backend
	maxBatch int

	met   *metrics
	mux   *http.ServeMux
	gates map[string]*gate

	draining atomic.Bool

	mu        sync.Mutex
	hs        *http.Server
	ln        net.Listener
	serveDone chan struct{}
	serveErr  error // set before serveDone closes

	stopOnce sync.Once
	stopErr  error
}

// New wires a server around b. The backend keeps working as usual —
// in-process ApplyEvents/Recommend callers and the HTTP surface share
// the same snapshots, and /metrics serves the backend's registry next to
// the server's own treesvd_http_* series.
func New(b Backend, opts Options) *Server {
	maxBatch := opts.MaxBatchEvents
	if maxBatch <= 0 {
		maxBatch = 1 << 20
	}
	s := &Server{
		b:        b,
		maxBatch: maxBatch,
		met:      newMetrics(),
	}
	s.gates = make(map[string]*gate, len(endpointNames))
	for _, name := range endpointNames {
		slots := readSlots
		if name == "ingest" {
			slots = ingestSlots
		}
		s.gates[name] = newGate(name, slots, 2*slots, queueWait, retryAfter, &s.met.endpoints[name].queued)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/version", s.instrument("version", s.handleVersion))
	mux.HandleFunc("GET /v1/recommend", s.instrument("recommend", s.handleRecommend))
	mux.HandleFunc("GET /v1/embedding", s.instrument("embedding", s.handleEmbedding))
	mux.HandleFunc("GET /v1/rightembedding", s.instrument("rightembedding", s.handleRightEmbedding))
	mux.HandleFunc("POST /v1/events", s.instrument("ingest", s.handleIngest))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		obs.Serve(w, b.MetricsRegistry(), s.met.reg)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	s.hs = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	return s
}

// Handler returns the server's mux, for mounting under a listener the
// caller owns (e.g. httptest, or a shared edge mux). Start/Shutdown are
// not needed in that mode.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (host:port; ":0" picks a free port — read it back
// with Addr) and serves in a background goroutine until Shutdown. It
// returns once the listener is bound, so a follow-up request cannot race
// the bind. Watch ServeDone/ServeErr to learn of a serve loop that dies
// for any reason other than Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if err := s.attach(ln); err != nil {
		ln.Close()
		return err
	}
	go s.serve(ln)
	return nil
}

// Serve accepts connections on a listener the caller owns (wrapped for
// fault injection, TLS-terminated, inherited from a supervisor) until
// Shutdown or a listener error. It returns nil after a clean Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.attach(ln); err != nil {
		return err
	}
	return s.serve(ln)
}

// attach records the listener; a server serves at most once.
func (s *Server) attach(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return errors.New("server: already started")
	}
	s.ln = ln
	s.serveDone = make(chan struct{})
	return nil
}

// serve runs the accept loop and publishes its exit.
func (s *Server) serve(ln net.Listener) error {
	err := s.hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil // the Shutdown path: not a serve failure
	}
	s.mu.Lock()
	s.serveErr = err
	done := s.serveDone
	s.mu.Unlock()
	close(done)
	return err
}

// ServeDone returns a channel closed when the serve loop has exited —
// after Shutdown, or on a listener failure. Nil before Start/Serve.
func (s *Server) ServeDone() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serveDone
}

// ServeErr returns the error that ended the serve loop, nil for a clean
// Shutdown (or while still serving). Meaningful once ServeDone closes.
func (s *Server) ServeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serveErr
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL ("" before Start).
func (s *Server) URL() string {
	addr := s.Addr()
	if addr == "" {
		return ""
	}
	return "http://" + addr
}

// Shutdown gracefully stops the server: the listener closes immediately
// (new connections are refused) and in-flight requests drain — each
// keeps serving from the snapshot it pinned at entry, so readers observe
// a clean "complete response or connection refused", never a truncated
// or mixed-version payload. ctx bounds the drain; on expiry remaining
// connections are closed hard and ctx.Err() is returned.
// Shutdown is idempotent: the first call performs the drain, later calls
// (including concurrent ones) wait for it and return the same result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	ln, done := s.ln, s.serveDone
	s.mu.Unlock()
	if ln == nil {
		return nil
	}
	s.stopOnce.Do(func() {
		// Flip readiness before the listener closes: a load balancer
		// probing /readyz sees "draining" while in-flight requests finish.
		s.draining.Store(true)
		err := s.hs.Shutdown(ctx)
		<-done // the serve loop has returned
		if err != nil {
			s.hs.Close()
			s.stopErr = fmt.Errorf("server: shutdown: %w", err)
		}
	})
	return s.stopErr
}
