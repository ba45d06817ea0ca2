package wire

// This file is the JSON half of the serving-layer wire schema: the DTOs
// the HTTP server marshals and the client SDK unmarshals, plus the typed
// error kinds that let the client reconstruct the facade's error family
// (*InvalidKError, *NotInSubsetError, *NodeRangeError) from an HTTP
// status + body instead of collapsing everything into "request failed".

// Error kinds carried in ErrorDTO.Kind. The client switches on these to
// rebuild typed errors; unknown kinds degrade to a generic API error, so
// adding kinds is backward compatible.
const (
	// KindInvalidK maps to *treesvd.InvalidKError (HTTP 400).
	KindInvalidK = "invalid_k"
	// KindNotInSubset maps to *treesvd.NotInSubsetError (HTTP 404).
	KindNotInSubset = "not_in_subset"
	// KindNodeRange maps to *treesvd.NodeRangeError (HTTP 400).
	KindNodeRange = "node_range"
	// KindBadRequest is a malformed query/body with no richer type (400).
	KindBadRequest = "bad_request"
	// KindInternal is a server-side failure (HTTP 500).
	KindInternal = "internal"
	// KindOverloaded maps to *treesvd.OverloadError (HTTP 503): admission
	// control shed the request; RetryAfterMs carries the backoff hint.
	KindOverloaded = "overloaded"
	// KindDegraded maps to *treesvd.DegradedError (HTTP 503): the durable
	// embedder is sealed read-only after a WAL I/O failure. Not worth
	// retrying without operator action.
	KindDegraded = "degraded"
)

// TimeoutHeader carries the caller's remaining deadline budget in
// milliseconds; the server folds it into the handler context so
// server-side work is abandoned once the caller has given up.
const TimeoutHeader = "X-Timeout-Ms"

// ErrorDTO is the JSON error body every non-2xx response carries. Error
// and Kind are always set; the remaining fields are populated per kind
// (Node/Subset for not_in_subset, K for invalid_k, Index/Node/MaxNodes
// for node_range).
type ErrorDTO struct {
	Error    string `json:"error"`
	Kind     string `json:"kind"`
	Node     int32  `json:"node,omitempty"`
	Subset   int    `json:"subset,omitempty"`
	K        int    `json:"k,omitempty"`
	Index    int    `json:"index,omitempty"`
	MaxNodes int    `json:"max_nodes,omitempty"`
	// Endpoint and RetryAfterMs accompany kind "overloaded": the gate
	// that shed the request and the server's backoff hint.
	Endpoint     string `json:"endpoint,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	// Reason accompanies kind "degraded": why the embedder sealed.
	Reason string `json:"reason,omitempty"`
}

// HealthDTO is the GET /healthz and /readyz response body. Status is
// "ok"/"ready" on 200; on a 503 from /readyz it names the condition
// ("draining", "degraded", "no snapshot") and Reason elaborates when the
// condition carries a cause.
type HealthDTO struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// VersionDTO is the GET /v1/version response: the published snapshot
// version plus the graph shape and subset size as of Version.
type VersionDTO struct {
	Version    uint64 `json:"version"`
	NumNodes   int    `json:"num_nodes"`
	NumEdges   int    `json:"num_edges"`
	SubsetSize int    `json:"subset_size"`
}

// RecDTO is one ranked recommendation in JSON form.
type RecDTO struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// RecommendDTO is the GET /v1/recommend response.
type RecommendDTO struct {
	Version         uint64   `json:"version"`
	Source          int32    `json:"source"`
	Recommendations []RecDTO `json:"recommendations"`
}

// MatrixDTO is the GET /v1/embedding and /v1/rightembedding response:
// row-major embedding rows frozen at one snapshot version. Nodes names
// the graph node each row embeds (the subset for /v1/embedding, the
// requested node(s) otherwise).
type MatrixDTO struct {
	Version uint64      `json:"version"`
	Nodes   []int32     `json:"nodes"`
	Rows    [][]float64 `json:"rows"`
}
