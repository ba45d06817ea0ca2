package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", s, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
	if got := (samples{30, 10, 20}).q(0.5); got != 20 {
		t.Errorf("samples.q sorts first: got %g, want 20", got)
	}
}

func TestPercentileEligibility(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
	} {
		if got := eligible(c.n, c.q); got != c.want {
			t.Errorf("eligible(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestCoveredIsAUnion(t *testing.T) {
	p := span{StartNs: 100, EndNs: 200}
	kids := []span{
		{StartNs: 150, EndNs: 170}, // recorded first, starts later
		{StartNs: 100, EndNs: 160}, // overlaps the first
		{StartNs: 190, EndNs: 260}, // runs past the parent
		{StartNs: 10, EndNs: 90},   // wholly outside
	}
	if got := covered(p, kids); got != 80 {
		t.Errorf("covered = %g, want 80 (100–170 and 190–200)", got)
	}
}

// A median of short operations is scaled by the median slice, which the odd
// slice that lost the CPU does not move; a median of long ones by stretches
// of slices as long, which each hold their share of the lost time.
func TestMedianSpeed(t *testing.T) {
	c := &calibrator{}
	for i := 0; i < 160; i++ {
		d := 1.0
		if i%8 == 7 {
			d = 9 // every eighth slice lost the CPU for eight slices' time
		}
		c.slices = append(c.slices, d*calRefNs)
	}
	if got := c.speed(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("speed = %g, want 0.5 (the mean slice is 2)", got)
	}
	if got := c.medianSpeed(calRefNs / 2); got != 1 {
		t.Errorf("medianSpeed of a short operation = %g, want 1", got)
	}
	if got := c.medianSpeed(8 * calRefNs); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("medianSpeed of an operation eight slices long = %g, want 0.5", got)
	}
}

func TestPlanIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w, 7, 2, false, tiny), generate(w, 7, 2, false, tiny)
		if !reflect.DeepEqual(a.subset, b.subset) || !reflect.DeepEqual(a.batches, b.batches) ||
			!reflect.DeepEqual(a.reads, b.reads) || a.cfg != b.cfg {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if c := generate(w, 8, 2, false, tiny); reflect.DeepEqual(a.batches, c.batches) {
			t.Errorf("%s: seeds 7 and 8 gave the same batches", w.name)
		}
		if want := tiny.warmBatches + a.loopBatches + tiny.ladderBatches; len(a.batches) != want {
			t.Errorf("%s: %d batches planned, want %d", w.name, len(a.batches), want)
		}
		stops := 0
		for n := tiny.warmBatches + 1; n <= tiny.warmBatches+a.loopBatches; n++ {
			if a.stopsAfter(n) {
				stops++
				if tail := n % a.checkpointEvery(); tail != a.checkpointEvery()-1 {
					t.Errorf("%s: the stop after batch %d finds a WAL tail of %d, want one short of the checkpoint period %d", w.name, n, tail, a.checkpointEvery())
				}
			}
		}
		if stops != tiny.sides {
			t.Errorf("%s: the loop stops %d times, want %d", w.name, stops, tiny.sides)
		}
	}
}

// The limits the regression driver enforces on BENCHMARK.json before it
// makes a single run.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func TestManifestSchema(t *testing.T) {
	data := manifestJSON()
	if len(data) > 64<<10 {
		t.Fatalf("manifest is %d bytes, over 64 KiB", len(data))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !sameSet(keys, want) {
		t.Fatalf("top-level keys %v, want exactly %v", keys, want)
	}
	var m struct {
		Command    []string            `json:"command"`
		Paths      []string            `json:"paths"`
		RunSeconds int                 `json:"run_seconds"`
		Workloads  []map[string]string `json:"workloads"`
		EndToEnd   []map[string]any    `json:"end_to_end"`
		PerLayer   []map[string]any    `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d strings", len(m.Command))
	}
	if len(m.Paths) != 1 || !pathRE.MatchString(m.Paths[0]) || strings.Contains(m.Paths[0], "..") || strings.HasPrefix(m.Paths[0], "/") {
		t.Errorf("paths = %v", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	// 4 + 22 × workloads runs, set-up and two builds included, in 3420 s. The
	// timed loop, one-shot operations included, ends at the deadline at the
	// latest; generating the inputs, the first set-up, the warm-up and the
	// closing checks take 2 to 4 s more, a build under a minute.
	if total := (4+22*len(m.Workloads))*(m.RunSeconds+4) + 2*60; total > 3420 {
		t.Errorf("the driver's %d runs would need about %d s, over its 3420 s", 4+22*len(m.Workloads), total)
	}

	seen := map[string]bool{}
	name := func(kind string, v any) {
		s, _ := v.(string)
		if !nameRE.MatchString(s) {
			t.Errorf("%s name %q is outside the naming limits", kind, s)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		name("workload", w["name"])
		if len(w) != 2 || w["why"] == "" || len(w["why"]) > 200 || strings.Contains(w["why"], "\n") {
			t.Errorf("workload %q: want exactly a name and a one-line why of at most 200 characters, got %d keys and a why of %d", w["name"], len(w), len(w["why"]))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(m.EndToEnd))
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		name("end-to-end", e["name"])
		unit, _ := e["unit"].(string)
		bound, _ := e["bound"].(float64)
		if len(e) != 4 || !unitRE.MatchString(unit) || (e["better"] != "lower" && e["better"] != "higher") || bound <= 0 || bound > 0.25 {
			t.Errorf("end-to-end metric %v is malformed", e)
		}
		if e["name"] == "setup_s" && unit == "s" && e["better"] == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(m.PerLayer))
	}
	for _, l := range m.PerLayer {
		name("per-layer", l["name"])
		unit, _ := l["unit"].(string)
		if len(l) != 3 || !unitRE.MatchString(unit) || (l["better"] != "lower" && l["better"] != "higher") {
			t.Errorf("per-layer metric %v is malformed", l)
		}
	}

	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, data) {
		t.Error("../BENCHMARK.json differs from the catalogue; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[string]bool{}
	for _, s := range a {
		in[s] = true
	}
	for _, s := range b {
		if !in[s] {
			return false
		}
	}
	return true
}

func TestReadmeNamesEverything(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not mention workload %s", w.name)
		}
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !bytes.Contains(readme, []byte("`"+m.name+"`")) {
			t.Errorf("README.md glossary lacks %s", m.name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, on a tiny graph: all
// correctness checks must pass, the result line must have the contract's
// shape, and every catalogue metric must be present (and an end-to-end
// one non-zero). A few seconds in all, so it stays in -short.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := execute(w, 3, 1, traced, tiny, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			rep := r.report()
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.name, traced, c.Name, c.Detail)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			line, err := json.Marshal(rep.result)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var top map[string]json.RawMessage
			if err := json.Unmarshal(line, &top); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range top {
				keys = append(keys, k)
			}
			if want := []string{"correct", "attempted", "failed", "metrics"}; !sameSet(keys, want) {
				t.Errorf("result line keys %v, want exactly %v", keys, want)
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			if len(rep.Metrics) != len(list) {
				t.Errorf("%s traced=%v: %d metrics reported, want %d", w.name, traced, len(rep.Metrics), len(list))
			}
			for _, m := range list {
				v, ok := rep.Metrics[m.name]
				switch {
				case !ok || v.Unit != m.unit:
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.name, traced, m.name, v.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: metric %s is %g", w.name, traced, m.name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", w.name, m.name, v.Value)
				}
			}
		}
	}
}
