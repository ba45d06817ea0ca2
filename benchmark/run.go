package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/server"
)

// run is one execution of one workload: its inputs, what it measured, and
// the verdicts of its correctness checks.
type run struct {
	w       workload
	seed    int64
	seconds int
	sz      size
	outDir  string // the benchmark's output directory
	workDir string // this run's scratch space under outDir, removed at the end
	in      *inputs
	rec     *recorder // nil on an untraced run
	cal     *calibrator
	// busy0 and stolen0 are the machine's CPU times when the run began.
	busy0, stolen0 float64

	attempted, failed int64
	checks            []check
	counts            map[string]int     // sample counts, by distribution
	values            map[string]float64 // metric name → value as measured
	// setups and recoveries time the one-shot operations: the first set-up
	// is the system the run drives, the others and every recovery happen
	// beside it, at the stops of the timed loop.
	setups, recoveries samples
	// heap is the live heap in MB at every stop of the loop and at its end.
	heap samples
}

// check is one correctness verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// verify records a check's verdict. A check made many times is listed
// once, with its first failure if it had one.
func (r *run) verify(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	for i, old := range r.checks {
		if old.Name == name {
			if old.OK {
				r.checks[i] = c
			}
			return
		}
	}
	r.checks = append(r.checks, c)
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// op counts one attempted operation and whether it failed.
func (r *run) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// system is the thing under test as one workload sets it up: an embedder,
// wrapped by the durable layer or fronted by the HTTP server when the
// workload says so.
type system struct {
	emb *treesvd.Embedder
	dur *treesvd.DurableEmbedder
	dir string // durable directory
	srv *server.Server
}

func (s *system) apply(ctx context.Context, events []treesvd.Event) (int, error) {
	if s.dur != nil {
		return s.dur.ApplyEvents(ctx, events)
	}
	return s.emb.ApplyEvents(ctx, events)
}

func (s *system) stop() error {
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = s.srv.Shutdown(ctx)
		cancel()
	}
	if s.dur != nil {
		if cerr := s.dur.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// setUp builds one system from a fresh clone of the graph and times it
// from inputs in memory to a readable first snapshot (and a bound listener,
// when served).
func (r *run) setUp() (*system, error) {
	g := r.in.graph.Clone()
	r.cal.burst()
	start := time.Now()
	sys, err := r.build(g, len(r.setups))
	if r.op(err) != nil {
		return nil, fmt.Errorf("set-up %d: %w", len(r.setups), err)
	}
	r.setups.add(time.Since(start))
	return sys, nil
}

func (r *run) build(g *treesvd.Graph, i int) (*system, error) {
	s := &system{}
	if r.w.durable {
		s.dir = filepath.Join(r.workDir, fmt.Sprintf("durable-%d", i))
		d, err := treesvd.Create(s.dir, g, r.in.subset, r.durableConfig())
		if err != nil {
			return nil, err
		}
		s.dur, s.emb = d, d.Embedder()
		return s, nil
	}
	e, err := treesvd.New(g, r.in.subset, r.in.cfg)
	if err != nil {
		return nil, err
	}
	s.emb = e
	if r.w.serve {
		s.srv = server.New(e, server.Options{})
		if err := s.srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (r *run) durableConfig() treesvd.DurableConfig {
	return treesvd.DurableConfig{Config: r.in.cfg, Sync: treesvd.SyncBatch, CheckpointEvery: r.in.checkpointEvery()}
}

// quality records the reconstruction error relative to ‖M‖_F, runs the
// library's invariant audit, and closes the books on the one-shot
// operations and on the live heap, whose median over the stops and the end
// of the loop is steadier than any one reading: the library's buffer pools
// hold a few MB more or less from one moment to the next. applied is the
// number of batches so far.
func (r *run) quality(sys *system, applied int) error {
	if len(r.recoveries) == 0 { // a loop too short to reach its first stop
		if err := r.side(sys, applied); err != nil {
			return err
		}
	}
	r.counts["setups"], r.counts["recoveries"] = len(r.setups), len(r.recoveries)
	r.values["setup_s"] = r.setups.q(0.5) / 1e9
	r.values["recovery_s"] = r.recoveries.q(0.5) / 1e9
	r.values["recon_rel_err"] = sys.emb.ReconstructionError() / sys.emb.ProximityFrobNorm()
	err := r.op(sys.emb.Audit())
	r.verify("audit", err == nil, "%v", err)
	r.heap = append(r.heap, liveHeapMB())
	r.values["heap_mb"] = r.heap.q(0.5)
	runtime.KeepAlive(sys)
	return nil
}

// side runs the one-shot operations once beside the live system, which
// must be idle: a set-up from scratch, torn down again, and a recovery of
// the live system's current state, which must reproduce its embedding bit
// for bit. The timed loop stops for it at evenly spread points, so that the
// medians of both see the same stretch of machine time as the loop does.
func (r *run) side(sys *system, applied int) error {
	r.heap = append(r.heap, liveHeapMB())
	extra, err := r.setUp()
	if err != nil {
		return err
	}
	if err := r.op(extra.stop()); err != nil {
		return fmt.Errorf("stop of set-up %d: %w", len(r.setups)-1, err)
	}
	if extra.dir != "" {
		if err := os.RemoveAll(extra.dir); err != nil {
			return err
		}
	}
	if sys.dur == nil {
		return r.loadSaved(sys)
	}
	// The store checkpoints in the background every checkpointEvery batches,
	// so its WAL tail holds the batches since the last multiple of that: at
	// a stop of the loop, one short of a whole period.
	took, err := r.openCopy(sys, applied%r.in.checkpointEvery())
	if err != nil {
		return err
	}
	r.recoveries.add(took)
	return nil
}

// loadSaved saves the system's state to a file and times LoadFile of it.
func (r *run) loadSaved(sys *system) error {
	want := sys.emb.Embedding()
	path := filepath.Join(r.workDir, "state.bin")
	if err := r.op(sys.emb.SaveFile(path)); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	for i := 0; i < r.sz.loads; i++ {
		r.cal.burst()
		start := time.Now()
		e, err := treesvd.LoadFile(path)
		if r.op(err) != nil {
			return fmt.Errorf("load: %w", err)
		}
		r.recoveries.add(time.Since(start))
		r.verify("recovered-embedding", maxAbsDiff(want, e.Embedding()) == 0,
			"recovery %d differs from the saved embedding by %g", len(r.recoveries), maxAbsDiff(want, e.Embedding()))
	}
	return nil
}

// openCopy copies the idle durable store's directory and times Open of the
// copy: load the newest checkpoint, replay the WAL tail, audit, publish. The
// tail must hold exactly tail batches.
func (r *run) openCopy(sys *system, tail int) (time.Duration, error) {
	want := sys.emb.Embedding()
	dir := filepath.Join(r.workDir, "recovery")
	if err := copyFiles(dir, sys.dir); err != nil {
		return 0, fmt.Errorf("copy of the store: %w", err)
	}
	defer os.RemoveAll(dir)
	r.cal.burst()
	start := time.Now()
	d, err := treesvd.Open(dir, r.durableConfig())
	if r.op(err) != nil {
		return 0, fmt.Errorf("open: %w", err)
	}
	took := time.Since(start)
	r.verify("replayed-batches", d.Recovery().ReplayedBatches == tail,
		"recovery %d replayed %d batches, want %d", len(r.recoveries)+1, d.Recovery().ReplayedBatches, tail)
	got := d.Embedder().Embedding()
	r.verify("recovered-embedding", maxAbsDiff(want, got) == 0,
		"recovery %d differs from the live embedding by %g", len(r.recoveries)+1, maxAbsDiff(want, got))
	return took, r.op(d.Close())
}

// liveHeapMB collects garbage and returns what is left, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// copyFiles copies the regular files of directory src, which has nothing
// else, into a new directory dst.
func copyFiles(dst, src string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("%s in %s is not a regular file", e.Name(), src)
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// maxAbsDiff is the largest element-wise distance of two equal-shape
// matrices, +Inf when the shapes differ.
func maxAbsDiff(a, b [][]float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return math.Inf(1)
		}
		for j := range a[i] {
			worst = max(worst, math.Abs(a[i][j]-b[i][j]))
		}
	}
	return worst
}

// checkRecs verifies one Recommend answer: k results, scores descending.
func checkRecs(recs []treesvd.Recommendation) error {
	if len(recs) != recommendK {
		return fmt.Errorf("%d results, want %d", len(recs), recommendK)
	}
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Score > recs[j].Score }) {
		return fmt.Errorf("scores not descending: %v", recs)
	}
	return nil
}

// execute runs the workload and returns the result to print. The error is
// for failures that left nothing to report.
func execute(w workload, seed int64, seconds int, traced bool, sz size, outDir string) (*run, error) {
	workDir, err := os.MkdirTemp(outDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	r := &run{w: w, seed: seed, seconds: seconds, sz: sz, outDir: outDir, workDir: workDir,
		in: generate(w, seed, seconds, traced, sz), cal: newCalibrator(),
		counts: map[string]int{}, values: map[string]float64{}}
	if traced {
		r.rec = newRecorder()
	}
	r.busy0, r.stolen0 = cpuTimes()
	if w.serve {
		err = r.serveMixed()
	} else {
		err = r.ingest()
	}
	if err != nil {
		return nil, err
	}
	if traced {
		if err := r.writeTrace(); err != nil {
			return nil, err
		}
	}
	return r, nil
}
