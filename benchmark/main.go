// Command benchmark is the repository's one benchmark: four named
// workloads over the whole system (facade, durable layer, HTTP server and
// client), nine end-to-end metrics from untraced runs, and a per-layer
// breakdown from a separate traced run. It changes no library code and
// measures every layer from outside, by timing calls into the layers'
// public functions and reading the embedder's own Metrics() and trace hook.
//
// One run of one workload, as the regression driver invokes it:
//
//	bash benchmark/run.sh --workload ingest-churn --seed 1 --seconds 30 --trace 0
//
// prints one JSON object as the last line of standard output. Without
// -workload the program runs the whole suite (every workload untraced, then
// traced) and prints every metric by name; -sets 2 runs the untraced suite
// twice and fails if two runs of the same code disagree by more than a
// metric's own bound. See README.md for the workloads and the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload; empty runs the whole suite")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", runSeconds, "length of the timed loop")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		sets     = flag.Int("sets", 1, "suite mode: run the untraced suite this many times; from 2, compare the first half's medians with the second half's")
		outDir   = flag.String("out", "out", "directory for result files, traces and scratch state")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || *sets < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-sets n] [-out dir]")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *name == "" {
		os.Exit(suite(*seed, *seconds, *sets, *outDir))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	r, err := execute(w, *seed, *seconds, *trace == 1, full, *outDir)
	if err != nil {
		fatal(err)
	}
	rep := r.report()
	if err := rep.write(reportPath(*outDir, w.name, *trace == 1)); err != nil {
		fatal(err)
	}
	rep.print(os.Stderr)
	line, err := json.Marshal(rep.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// nanos converts a timing in one of the catalogue's units to nanoseconds.
var nanos = map[string]float64{"s": 1e9, "ms": 1e6, "us": 1e3}

// metricValue is one reported number, as measured, with all its digits.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the result with its provenance header and check verdicts, as
// written to <out>/<workload>[.traced].json.
type report struct {
	Provenance provenance `json:"provenance"`
	Traced     bool       `json:"traced"`
	result
	Checks []check `json:"checks"`
	// MachineSpeed and MedianSpeed are the run's calibration factors for
	// totals and for medians of the shortest operations (see calibrate.go),
	// and Unscaled the metrics as the clock read them, before one was applied.
	// StolenFrac is the share of the CPU time the machine wanted during the
	// run that the hypervisor gave to other tenants; a run with more than a
	// few percent measured the neighbours as much as the library.
	MachineSpeed float64            `json:"machine_speed"`
	MedianSpeed  float64            `json:"median_speed"`
	StolenFrac   float64            `json:"stolen_frac"`
	Unscaled     map[string]float64 `json:"unscaled"`
}

func reportPath(outDir, workload string, traced bool) string {
	if traced {
		workload += ".traced"
	}
	return filepath.Join(outDir, workload+".json")
}

// report assembles what the run measured: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one. A layer the
// workload never drove reports 0.
func (r *run) report() report {
	list := endToEnd
	if r.rec != nil {
		list = perLayer
	}
	speed := r.cal.speed()
	busy, stolen := cpuTimes()
	stolenFrac := ratio(stolen-r.stolen0, busy-r.busy0+stolen-r.stolen0)
	r.values["loadgen.machine_speed"] = speed
	r.values["loadgen.stolen_frac"] = stolenFrac
	rep := report{Provenance: r.provenance(), Traced: r.rec != nil, Checks: r.checks,
		result: result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
			Metrics: make(map[string]metricValue, len(list))},
		MachineSpeed: speed, MedianSpeed: r.cal.medianSpeed(0), StolenFrac: stolenFrac, Unscaled: make(map[string]float64, len(list))}
	for _, m := range list {
		by := speed
		switch {
		case m.median:
			by = r.cal.medianSpeed(r.values[m.name] * nanos[m.unit])
		case r.w.serve && m.name == "events_per_s":
			by = 1 // what the paced writer got acknowledged does not move with machine speed
		}
		rep.Unscaled[m.name] = r.values[m.name]
		rep.Metrics[m.name] = metricValue{scaled(r.values[m.name], m.unit, by), m.unit}
	}
	return rep
}

func (rep report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(data, &rep)
}

// sampleOf names the distribution behind each timing metric and the
// quantile it reports (0 for a rate), so a percentile is always printed
// beside its sample count.
var sampleOf = map[string]struct {
	dist string
	q    float64
}{
	"setup_s": {"setups", 0.5}, "recovery_s": {"recoveries", 0.5},
	"batch_p50_ms": {"batches", 0.5}, "batch_p99_ms": {"batches", 0.99},
	"reads_per_s": {"reads", 0}, "fresh_read_mean_us": {"fresh_reads", 0},
	"loadgen.read_p50_us": {"reads", 0.5}, "loadgen.read_p999_us": {"reads", 0.999},
}

// print writes the report as a table: one metric per line, by name, with
// its unit and, for a timing, its sample count. A tail percentile with
// fewer than ten samples beyond it is marked.
func (rep report) print(w io.Writer) {
	p := rep.Provenance
	kind := "untraced"
	if rep.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s  seed %d  %d s  %s  correct=%v  attempted=%d  failed=%d  machine speed %.3f  stolen %.1f%%\n",
		p.Workload, p.Seed, p.Seconds, kind, rep.Correct, rep.Attempted, rep.Failed, rep.MachineSpeed, 100*rep.StolenFrac)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rep.Metrics[name]
		note := ""
		if s, ok := sampleOf[name]; ok {
			n := p.Samples[s.dist]
			note = fmt.Sprintf("  n=%d", n)
			if s.q > 0.5 && !eligible(n, s.q) { // a median of a handful of one-shot operations is what it is
				note += " (too few for this percentile)"
			}
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s%s\n", name, v.Value, v.Unit, note)
	}
	for _, c := range rep.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
}

// suite runs every workload as its own process, exactly as the driver
// does: the untraced suite sets times, then one traced run per workload.
// It prints every metric, writes results.json, and returns the exit code:
// non-zero when a run was incorrect or, with two or more sets, when two
// runs of the same code disagree by more than a metric's bound.
func suite(seed int64, seconds, sets int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	child := func(w workload, traced bool) report {
		trace := "0"
		if traced {
			trace = "1"
		}
		path := reportPath(outDir, w.name, traced)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			fatal(err) // a stale report must not pass for this run's
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", outDir)
		cmd.Stderr = os.Stdout // the run's table
		runErr := cmd.Run()    // the report says why a run was incorrect; a missing report is fatal
		rep, err := readReport(path)
		if err != nil {
			fatal(fmt.Errorf("%s: %v (run: %v)", w.name, err, runErr))
		}
		return rep
	}

	out := suiteResults{Provenance: hostProvenance(outDir, seed, seconds)}
	code := 0
	for s := 0; s < sets; s++ {
		set := map[string]report{}
		for _, w := range workloads {
			rep := child(w, false)
			if !rep.Correct {
				code = 1
			}
			set[w.name] = rep
		}
		out.EndToEnd = append(out.EndToEnd, set)
	}
	out.PerLayer = map[string]report{}
	for _, w := range workloads {
		rep := child(w, true)
		if !rep.Correct {
			code = 1
		}
		out.PerLayer[w.name] = rep
	}
	if sets >= 2 && !out.compare(os.Stdout) {
		code = 1
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	return code
}

// suiteResults is results.json: every run's report under one header.
type suiteResults struct {
	Provenance provenance          `json:"provenance"`
	EndToEnd   []map[string]report `json:"end_to_end"` // one map per set, by workload
	PerLayer   map[string]report   `json:"per_layer"`  // by workload
}

// compare prints, per (metric, workload), the median of the first half of
// the sets and that of the second half (with two sets: the two values),
// their relative gap in the metric's worse direction and the metric's
// bound, and marks a gap beyond the bound UNRESOLVED. It reports whether
// every pair agreed.
func (s suiteResults) compare(w io.Writer) bool {
	ok := true
	half := len(s.EndToEnd) / 2
	median := func(sets []map[string]report, wl, name string) float64 {
		var v samples
		for _, set := range sets {
			v = append(v, set[wl].Metrics[name].Value)
		}
		return v.q(0.5)
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %8s\n", "workload", "metric",
		fmt.Sprintf("sets 1-%d", half), fmt.Sprintf("sets %d-%d", half+1, len(s.EndToEnd)), "gap", "bound")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := median(s.EndToEnd[:half], wl.name, m.name), median(s.EndToEnd[half:], wl.name, m.name)
			gap := worseBy(m, va, vb)
			verdict := ""
			if gap > m.bound {
				verdict, ok = "  UNRESOLVED", false
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %7.1f%% %7.1f%%%s\n",
				wl.name, m.name, va, vb, 100*gap, 100*m.bound, verdict)
		}
	}
	return ok
}

// worseBy is how much worse the worse of two readings is than the better
// one, as a share of the better one.
func worseBy(m metric, a, b float64) float64 {
	lo, hi := min(a, b), max(a, b)
	if m.better == "higher" {
		return ratio(hi-lo, hi)
	}
	return ratio(hi-lo, lo)
}
