package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Label is one metric label pair; see the labels of the registration
// methods.
type Label struct {
	Key, Value string
}

// entry is one registered series: its base name, its rendered label pairs
// (`k1="v1",k2="v2"`, empty for an unlabeled series), its HELP text with
// the unit appended, its Prometheus TYPE keyword, and a closure that reads
// its value: a uint64 count, a float64 level or a HistStats.
type entry struct {
	name, labels, help, kind string
	read                     func() any
}

// series renders the entry's series identifier: the name with suffix
// appended, then the labels and extra, braced, when there are any.
func (e entry) series(suffix, extra string) string {
	ls := e.labels
	if ls != "" && extra != "" {
		ls += ","
	}
	if ls += extra; ls == "" {
		return e.name + suffix
	}
	return e.name + suffix + "{" + ls + "}"
}

// Registry is a named collection of metrics served over HTTP in the
// Prometheus text format. Every embedder owns one, and so does every HTTP
// server; registration happens at construction time, reads at any time.
// All methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries []entry
	byName  map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

// add registers one series, panicking on a duplicate (name, labels) pair —
// duplicate registration is a wiring bug, not a runtime condition.
// Labeled series under one base name must share kind/unit/help (the
// Prometheus exposition emits HELP/TYPE once per name).
func (r *Registry) add(name string, labels []Label, unit, help, kind string, read func() any) {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if unit != "" {
		help += " (" + unit + ")"
	}
	e := entry{name: name, labels: b.String(), help: help, kind: kind, read: read}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := e.series("", "")
	if _, dup := r.byName[key]; dup {
		panic("obs: duplicate metric " + key)
	}
	r.byName[key] = struct{}{}
	r.entries = append(r.entries, e)
}

// Counter registers a counter under name, one series per distinct label
// set (used for per-endpoint and per-stage series).
func (r *Registry) Counter(name, unit, help string, c *Counter, labels ...Label) {
	r.add(name, labels, unit, help, "counter", func() any { return c.Load() })
}

// CounterFunc registers a counter read through f (derived or process-wide
// counts owned elsewhere, e.g. the linalg workspace pool).
func (r *Registry) CounterFunc(name, unit, help string, f func() uint64) {
	r.add(name, nil, unit, help, "counter", func() any { return f() })
}

// Gauge registers a gauge under name, with labels as for Counter.
func (r *Registry) Gauge(name, unit, help string, g *Gauge, labels ...Label) {
	r.add(name, labels, unit, help, "gauge", func() any { return float64(g.Load()) })
}

// GaugeFunc registers a gauge computed by f at read time (derived values
// such as the age of the current snapshot).
func (r *Registry) GaugeFunc(name, unit, help string, f func() float64) {
	r.add(name, nil, unit, help, "gauge", func() any { return f() })
}

// Histogram registers a histogram under name, with labels as for Counter.
// It is exported as a summary: pre-computed window quantiles, not
// cumulative buckets.
func (r *Registry) Histogram(name, unit, help string, h *Histogram, labels ...Label) {
	r.add(name, labels, unit, help, "summary", func() any { return h.Snapshot() })
}

// ServeHTTP serves the registry (see Serve). Mount it wherever the
// operator wants the endpoint, e.g. http.Handle("/metrics",
// emb.MetricsRegistry()).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) { Serve(w, r) }

// Serve writes the metrics of every registry in regs as one page of
// Prometheus text, sorted by name, then labels, across them, with HELP
// and TYPE once per name (units are appended to HELP, not encoded in the
// name). A histogram shows <name>{quantile="…"} series for its window
// quantiles, then <name>_sum and <name>_count; its min, max and mean are
// read in process (Histogram.Snapshot). The registries must not share a
// series.
func Serve(w http.ResponseWriter, regs ...*Registry) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var es []entry
	for _, r := range regs {
		r.mu.RLock()
		es = append(es, r.entries...)
		r.mu.RUnlock()
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].name != es[j].name {
			return es[i].name < es[j].name
		}
		return es[i].labels < es[j].labels
	})
	var b strings.Builder
	for i, e := range es {
		if i == 0 || e.name != es[i-1].name {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, e.kind)
		}
		switch v := e.read().(type) {
		case uint64:
			fmt.Fprintf(&b, "%s %d\n", e.series("", ""), v)
		case float64:
			fmt.Fprintf(&b, "%s %g\n", e.series("", ""), v)
		case HistStats:
			for _, q := range [...]struct {
				q string
				v int64
			}{{"0.5", v.P50}, {"0.9", v.P90}, {"0.99", v.P99}, {"0.999", v.P999}} {
				fmt.Fprintf(&b, "%s %d\n", e.series("", `quantile="`+q.q+`"`), q.v)
			}
			fmt.Fprintf(&b, "%s %d\n%s %d\n", e.series("_sum", ""), v.Sum, e.series("_count", ""), v.Count)
		}
	}
	io.WriteString(w, b.String())
}
