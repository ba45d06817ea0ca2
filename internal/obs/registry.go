package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a registered metric.
type Kind uint8

// Metric kinds.
const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that moves in both directions.
	KindGauge
	// KindHistogram is a latency/size distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind (histograms are
// exported as summaries: pre-computed quantiles, not cumulative buckets).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "summary"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is one registered metric's point-in-time reading, produced by
// Registry.Snapshot. Exactly one of Counter/Gauge/Hist is meaningful,
// selected by Kind. Labels is the rendered label pairs (`endpoint="ingest"`),
// empty for unlabeled series.
type Value struct {
	Name, Labels, Unit, Help string
	Kind                     Kind
	Counter                  uint64
	Gauge                    float64
	Hist                     HistStats
}

// Label is one metric label pair; see the *With registration methods.
type Label struct {
	Key, Value string
}

// renderLabels formats label pairs in registration order as the inner
// Prometheus label body: `k1="v1",k2="v2"`.
func renderLabels(labels []Label) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// entry pairs a metric's description with a closure that reads it.
type entry struct {
	name, labels, unit, help string
	kind                     Kind
	read                     func() Value
}

// Registry is a named collection of metrics that can be snapshotted and
// served over HTTP in the Prometheus text format. Every embedder owns
// one, and so does every HTTP server; registration happens at
// construction time, reads at any time. All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries []entry
	byName  map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

// add registers one entry, panicking on a duplicate (name, labels) pair —
// duplicate registration is a wiring bug, not a runtime condition.
// Labeled series under one base name must share kind/unit/help (the
// Prometheus exposition emits HELP/TYPE once per name).
func (r *Registry) add(name, labels, unit, help string, kind Kind, read func() Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name
	if labels != "" {
		key += "{" + labels + "}"
	}
	if _, dup := r.byName[key]; dup {
		panic("obs: duplicate metric " + key)
	}
	r.byName[key] = struct{}{}
	r.entries = append(r.entries, entry{name: name, labels: labels, unit: unit, help: help, kind: kind, read: read})
}

// Counter registers a counter under name.
func (r *Registry) Counter(name, unit, help string, c *Counter) {
	r.CounterWith(name, nil, unit, help, c)
}

// CounterWith registers a counter under name with label pairs — one
// series per distinct label set, sharing the base name's HELP/TYPE (used
// for per-endpoint series).
func (r *Registry) CounterWith(name string, labels []Label, unit, help string, c *Counter) {
	ls := renderLabels(labels)
	r.add(name, ls, unit, help, KindCounter, func() Value {
		return Value{Name: name, Labels: ls, Unit: unit, Help: help, Kind: KindCounter, Counter: c.Load()}
	})
}

// CounterFunc registers a counter read through f (derived or process-wide
// counts owned elsewhere, e.g. the linalg workspace pool).
func (r *Registry) CounterFunc(name, unit, help string, f func() uint64) {
	r.add(name, "", unit, help, KindCounter, func() Value {
		return Value{Name: name, Unit: unit, Help: help, Kind: KindCounter, Counter: f()}
	})
}

// Gauge registers a gauge under name.
func (r *Registry) Gauge(name, unit, help string, g *Gauge) {
	r.GaugeWith(name, nil, unit, help, g)
}

// GaugeWith is Gauge with label pairs (see CounterWith).
func (r *Registry) GaugeWith(name string, labels []Label, unit, help string, g *Gauge) {
	ls := renderLabels(labels)
	r.add(name, ls, unit, help, KindGauge, func() Value {
		return Value{Name: name, Labels: ls, Unit: unit, Help: help, Kind: KindGauge, Gauge: float64(g.Load())}
	})
}

// GaugeFunc registers a gauge computed by f at read time (derived values
// such as the age of the current snapshot).
func (r *Registry) GaugeFunc(name, unit, help string, f func() float64) {
	r.add(name, "", unit, help, KindGauge, func() Value {
		return Value{Name: name, Unit: unit, Help: help, Kind: KindGauge, Gauge: f()}
	})
}

// Histogram registers a histogram under name.
func (r *Registry) Histogram(name, unit, help string, h *Histogram) {
	r.HistogramWith(name, nil, unit, help, h)
}

// HistogramWith is Histogram with label pairs (see CounterWith).
func (r *Registry) HistogramWith(name string, labels []Label, unit, help string, h *Histogram) {
	ls := renderLabels(labels)
	r.add(name, ls, unit, help, KindHistogram, func() Value {
		return Value{Name: name, Labels: ls, Unit: unit, Help: help, Kind: KindHistogram, Hist: h.Snapshot()}
	})
}

// gather reads every metric of every registry in regs into one list,
// sorted by name, then labels.
func gather(regs ...*Registry) []Value {
	var vals []Value
	for _, r := range regs {
		r.mu.RLock()
		for _, e := range r.entries {
			vals = append(vals, e.read())
		}
		r.mu.RUnlock()
	}
	sort.Slice(vals, func(i, j int) bool {
		if vals[i].Name != vals[j].Name {
			return vals[i].Name < vals[j].Name
		}
		return vals[i].Labels < vals[j].Labels
	})
	return vals
}

// series renders a Value's full series identifier: the bare name, or
// name{labels} for labeled series.
func (v Value) series() string {
	if v.Labels == "" {
		return v.Name
	}
	return v.Name + "{" + v.Labels + "}"
}

// quantileSeries renders the summary-quantile series for a histogram
// Value, merging the quantile label into any existing labels.
func (v Value) quantileSeries(q string) string {
	if v.Labels == "" {
		return fmt.Sprintf("%s{quantile=%q}", v.Name, q)
	}
	return fmt.Sprintf("%s{%s,quantile=%q}", v.Name, v.Labels, q)
}

// writePrometheus writes vals in the Prometheus text exposition format.
// Histograms are exported as summaries: <name>{quantile="..."} series
// plus <name>_sum and <name>_count. Units are appended to HELP, not
// encoded in the metric name — names are chosen by the caller.
func writePrometheus(w io.Writer, vals []Value) {
	var b strings.Builder
	prevName := ""
	for _, v := range vals {
		if v.Name != prevName {
			// HELP/TYPE once per base name: labeled series under one name
			// share a single header (the exposition-format requirement).
			help := v.Help
			if v.Unit != "" {
				help += " (" + v.Unit + ")"
			}
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", v.Name, help, v.Name, v.Kind)
			prevName = v.Name
		}
		switch v.Kind {
		case KindCounter:
			fmt.Fprintf(&b, "%s %d\n", v.series(), v.Counter)
		case KindGauge:
			fmt.Fprintf(&b, "%s %g\n", v.series(), v.Gauge)
		case KindHistogram:
			h := v.Hist
			fmt.Fprintf(&b, "%s %d\n", v.quantileSeries("0.5"), h.P50)
			fmt.Fprintf(&b, "%s %d\n", v.quantileSeries("0.9"), h.P90)
			fmt.Fprintf(&b, "%s %d\n", v.quantileSeries("0.99"), h.P99)
			fmt.Fprintf(&b, "%s %d\n", v.quantileSeries("0.999"), h.P999)
			sumName, countName := v.Name+"_sum", v.Name+"_count"
			if v.Labels != "" {
				sumName += "{" + v.Labels + "}"
				countName += "{" + v.Labels + "}"
			}
			fmt.Fprintf(&b, "%s %d\n%s %d\n", sumName, h.Sum, countName, h.Count)
		}
	}
	io.WriteString(w, b.String())
}

// ServeHTTP serves the registry (see Serve). Mount it wherever the
// operator wants the endpoint, e.g. http.Handle("/metrics",
// emb.MetricsRegistry()).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) { Serve(w, r) }

// Serve writes the metrics of every registry in regs as one page of
// Prometheus text, sorted by name across them. A histogram shows its
// window quantiles, _sum and _count; its min, max and mean are read in
// process (Snapshot). The registries must not share a series.
func Serve(w http.ResponseWriter, regs ...*Registry) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePrometheus(w, gather(regs...))
}
