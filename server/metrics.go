package server

import "github.com/tree-svd/treesvd/internal/obs"

// endpointMetrics is one endpoint's request instrumentation, registered
// under treesvd_http_*{endpoint="..."} labels.
type endpointMetrics struct {
	requests obs.Counter
	errors   obs.Counter
	shed     obs.Counter
	queued   obs.Gauge
	nanos    obs.Histogram
}

// metrics is one Server's HTTP metric set, registered in a registry the
// server owns: /metrics serves it next to the backend's registry, and a
// new Server starts every series at zero.
type metrics struct {
	inflight      obs.Gauge
	ingestBatches obs.Counter
	ingestEvents  obs.Counter
	endpoints     map[string]*endpointMetrics // read-only after newMetrics
	reg           *obs.Registry
}

// endpoints the server instruments; registered eagerly so the series
// exist (at zero) before the first request.
var endpointNames = []string{"version", "recommend", "embedding", "rightembedding", "ingest"}

// newMetrics builds and registers one server's metric set.
func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{endpoints: make(map[string]*endpointMetrics, len(endpointNames)), reg: reg}
	reg.Gauge("treesvd_http_inflight", "requests", "HTTP requests currently being served", &m.inflight)
	reg.Counter("treesvd_http_ingest_batches_total", "batches",
		"Event batches accepted over HTTP ingest", &m.ingestBatches)
	reg.Counter("treesvd_http_ingest_events_total", "events",
		"Edge events accepted over HTTP ingest", &m.ingestEvents)
	for _, name := range endpointNames {
		em := &endpointMetrics{}
		m.endpoints[name] = em
		l := obs.Label{Key: "endpoint", Value: name}
		reg.Counter("treesvd_http_requests_total", "requests",
			"HTTP requests served, by endpoint", &em.requests, l)
		reg.Counter("treesvd_http_errors_total", "requests",
			"HTTP requests answered with status >= 400, by endpoint", &em.errors, l)
		reg.Counter("treesvd_http_shed_total", "requests",
			"HTTP requests shed by admission control, by endpoint", &em.shed, l)
		reg.Gauge("treesvd_http_queued", "requests",
			"HTTP requests waiting in the admission queue, by endpoint", &em.queued, l)
		reg.Histogram("treesvd_http_request_nanos", "ns",
			"Server-side wall time per HTTP request, by endpoint", &em.nanos, l)
	}
	return m
}
