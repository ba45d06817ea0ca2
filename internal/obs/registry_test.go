package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"testing"
)

// buildRegistry registers one metric of every kind with live values.
func buildRegistry() *Registry {
	r := NewRegistry()
	var c Counter
	c.Add(7)
	var g Gauge
	g.Set(-3)
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	r.Counter("test_ops_total", "ops", "a counter", &c)
	r.Gauge("test_level", "items", "a gauge", &g)
	r.GaugeFunc("test_derived", "seconds", "a derived gauge", func() float64 { return 1.5 })
	r.CounterFunc("test_pool_hits_total", "ops", "a derived counter", func() uint64 { return 9 })
	r.Histogram("test_latency_nanos", "ns", "a histogram", &h)
	return r
}

// TestEveryRegisteredMetricAppears asserts that every name the registry
// knows shows up in both the expvar JSON and the Prometheus text output —
// the registration/export parity gate of ISSUE 5.
func TestEveryRegisteredMetricAppears(t *testing.T) {
	r := buildRegistry()
	var jsonBuf, promBuf strings.Builder
	if err := r.WriteExpvar(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d entries, want 5", len(snap))
	}
	for _, v := range snap {
		if !strings.Contains(jsonBuf.String(), fmt.Sprintf("%q", v.Name)) {
			t.Errorf("metric %s missing from expvar output", v.Name)
		}
		if !strings.Contains(promBuf.String(), "\n"+v.Name) && !strings.HasPrefix(promBuf.String(), "# HELP "+v.Name) {
			t.Errorf("metric %s missing from prometheus output", v.Name)
		}
	}
}

// TestExpvarOutputIsValidJSON decodes the endpoint output and checks the
// values survived the trip.
func TestExpvarOutputIsValidJSON(t *testing.T) {
	r := buildRegistry()
	var buf strings.Builder
	if err := r.WriteExpvar(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc["test_ops_total"].(float64) != 7 {
		t.Fatalf("counter round-trip = %v", doc["test_ops_total"])
	}
	if doc["test_level"].(float64) != -3 {
		t.Fatalf("gauge round-trip = %v", doc["test_level"])
	}
	hist := doc["test_latency_nanos"].(map[string]any)
	if hist["count"].(float64) != 100 || hist["sum"].(float64) != 5050 {
		t.Fatalf("histogram round-trip = %v", hist)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := buildRegistry()
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter",
		"test_ops_total 7",
		"# TYPE test_level gauge",
		"test_level -3",
		"# TYPE test_latency_nanos summary",
		`test_latency_nanos{quantile="0.5"}`,
		"test_latency_nanos_sum 5050",
		"test_latency_nanos_count 100",
		"a counter (ops)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestServeHTTP checks content negotiation between the two formats.
func TestServeHTTP(t *testing.T) {
	r := buildRegistry()

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("default content type = %s, want JSON", ct)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatal("default response is not JSON")
	}

	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if !strings.Contains(rec.Body.String(), "# TYPE") {
		t.Fatal("format=prometheus did not produce text format")
	}

	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	r.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "# TYPE") {
		t.Fatal("Accept: text/plain did not produce text format")
	}
}

// TestStageSetsLabel verifies the pprof label is visible inside the stage
// and gone after it, and that Stage returns the error of its function.
func TestStageSetsLabel(t *testing.T) {
	ctx := context.Background()
	var inside string
	Stage(ctx, "unit-test", func(ctx context.Context) error {
		inside, _ = pprof.Label(ctx, StageLabel)
		return nil
	})
	if inside != "unit-test" {
		t.Fatalf("label inside stage = %q, want unit-test", inside)
	}
	if v, ok := pprof.Label(ctx, StageLabel); ok {
		t.Fatalf("label leaked outside stage: %q", v)
	}
	want := errors.New("stage failed")
	if err := Stage(ctx, "unit-test", func(context.Context) error { return want }); err != want {
		t.Fatalf("Stage returned %v, want f's error", err)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(1)
		}
	})
}
