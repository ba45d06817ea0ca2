package obs

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
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

// prometheusPage serves r through ServeHTTP and returns the page.
func prometheusPage(t *testing.T, r *Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestEveryRegisteredMetricAppears asserts that every name the registry
// knows shows up in the Prometheus text output — the registration/export
// parity gate.
func TestEveryRegisteredMetricAppears(t *testing.T) {
	r := buildRegistry()
	prom := prometheusPage(t, r)
	if len(r.entries) != 5 {
		t.Fatalf("registry has %d entries, want 5", len(r.entries))
	}
	for _, e := range r.entries {
		if !strings.Contains(prom, "\n"+e.name) && !strings.HasPrefix(prom, "# HELP "+e.name) {
			t.Errorf("metric %s missing from prometheus output", e.name)
		}
	}
}

func TestPrometheusFormat(t *testing.T) {
	out := prometheusPage(t, buildRegistry())
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

// TestServeHTTP checks that the page is Prometheus text whatever the
// request asks for: a plain GET, a leftover ?format=prometheus, and an
// Accept header preferring JSON all get the same page.
func TestServeHTTP(t *testing.T) {
	r := buildRegistry()
	want := prometheusPage(t, r)
	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/metrics", nil),
		httptest.NewRequest("GET", "/metrics?format=prometheus", nil),
		func() *http.Request {
			req := httptest.NewRequest("GET", "/metrics", nil)
			req.Header.Set("Accept", "application/json")
			return req
		}(),
	} {
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s (Accept %q): Content-Type %q, want text/plain", req.URL, req.Header.Get("Accept"), ct)
		}
		if got := rec.Body.String(); got != want || !strings.Contains(got, "# TYPE") {
			t.Errorf("%s (Accept %q): page differs from the plain GET's:\n%s", req.URL, req.Header.Get("Accept"), got)
		}
	}
}

// TestStageSetsLabel runs a stage table of two rows and checks that a
// goroutine spawned inside a stage carries that stage's pprof label, that
// one spawned after Stop carries none, that each row is timed from its
// boundary to the next, and that a row the run did not enter is absent.
func TestStageSetsLabel(t *testing.T) {
	labelled := func(st Stage) bool {
		release := make(chan struct{})
		started := make(chan struct{})
		done := make(chan struct{})
		go func() { close(started); <-release; close(done) }()
		<-started
		var b strings.Builder
		pprof.Lookup("goroutine").WriteTo(&b, 1)
		close(release)
		<-done
		return strings.Contains(b.String(), fmt.Sprintf("%q:%q", StageLabel, st.String()))
	}
	var s Stages
	s.Enter(StageRepair) // idle: no run is open
	var none *Stages
	none.Enter(StageRepair)
	none.Stop()

	s.Start(context.Background())
	s.Enter(StageRepair)
	if !labelled(StageRepair) {
		t.Fatal("a goroutine spawned inside ppr.repair does not carry its label")
	}
	time.Sleep(2 * time.Millisecond)
	s.Enter(StageMerge)
	s.Stop()
	if labelled(StageMerge) {
		t.Fatal("the stage label outlived Stop")
	}
	times := s.Times()
	if len(times) != 2 || times[0].Stage != "ppr.repair" || times[1].Stage != "tree.merge" {
		t.Fatalf("Times() = %v, want ppr.repair then tree.merge", times)
	}
	if times[0].Dur < 2*time.Millisecond {
		t.Fatalf("ppr.repair timed %v across a 2ms sleep", times[0].Dur)
	}
	if _, ran := s.Dur(StageAdvance); ran {
		t.Fatal("a stage the run never entered reports that it ran")
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
