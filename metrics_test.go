package treesvd_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	treesvd "github.com/tree-svd/treesvd"
)

// chordBatches returns nb deterministic insert batches over a ring graph
// of n nodes, each adding one chord per node.
func chordBatches(n int32, nb int) [][]treesvd.Event {
	out := make([][]treesvd.Event, nb)
	for b := range out {
		for v := int32(0); v < n; v++ {
			out[b] = append(out[b], treesvd.Event{U: v, V: (v + 5 + int32(b)) % n, Type: treesvd.Insert})
		}
	}
	return out
}

func TestMetricsAfterChurn(t *testing.T) {
	g := ringGraph(64)
	emb, err := treesvd.New(g, []int32{0, 8, 16, 24, 32, 40}, treesvd.Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m := emb.Metrics(); m.Pushes == 0 || m.TreeBuilds != 1 || m.SnapshotsPublished != 1 {
		t.Fatalf("post-New metrics: pushes=%d builds=%d snapshots=%d",
			m.Pushes, m.TreeBuilds, m.SnapshotsPublished)
	}
	batches := chordBatches(64, 4)
	for _, b := range batches {
		if _, err := emb.ApplyEvents(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	m := emb.Metrics()
	if m.BatchesApplied != 4 {
		t.Fatalf("BatchesApplied = %d, want 4", m.BatchesApplied)
	}
	if want := uint64(4 * 64); m.EventsApplied != want {
		t.Fatalf("EventsApplied = %d, want %d", m.EventsApplied, want)
	}
	if m.Adjusts == 0 {
		t.Fatal("Adjusts = 0 after incremental batches")
	}
	if states := uint64(2 * len(emb.Subset())); m.StatesRepaired == 0 || m.StatesRepaired > 4*states {
		t.Fatalf("StatesRepaired = %d after 4 batches over %d states", m.StatesRepaired, states)
	}
	if m.TreeUpdates != 4 {
		t.Fatalf("TreeUpdates = %d, want 4", m.TreeUpdates)
	}
	if m.BlocksRebuilt+m.BlocksSkipped == 0 {
		t.Fatal("no block outcomes recorded")
	}
	if m.SnapshotsPublished != 5 {
		t.Fatalf("SnapshotsPublished = %d, want 5", m.SnapshotsPublished)
	}
	if m.Batch.Count != 4 || m.Batch.Max <= 0 {
		t.Fatalf("Batch stats = %+v", m.Batch)
	}
	if m.SnapshotAge <= 0 {
		t.Fatalf("SnapshotAge = %v, want > 0", m.SnapshotAge)
	}
	if m.WAL != nil {
		t.Fatal("WAL metrics set on a non-durable embedder")
	}
	if err := emb.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2 := emb.Metrics()
	if m2.Rebuilds != 1 || m2.SourceRebuilds == 0 || m2.TreeBuilds != 2 {
		t.Fatalf("post-Rebuild: rebuilds=%d sourceRebuilds=%d builds=%d",
			m2.Rebuilds, m2.SourceRebuilds, m2.TreeBuilds)
	}
}

// TestMetricsRegistryServesPrometheus exercises the facade registry end
// to end over HTTP: a plain GET must carry the pipeline's key series in
// the Prometheus text format.
func TestMetricsRegistryServesPrometheus(t *testing.T) {
	g := ringGraph(32)
	emb, err := treesvd.New(g, []int32{0, 8, 16}, treesvd.Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := emb.ApplyEvents(context.Background(), chordBatches(32, 1)[0]); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	emb.MetricsRegistry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q, want Prometheus text", ct)
	}
	prom := rec.Body.String()
	for _, name := range []string{
		"treesvd_ppr_pushes_total",
		"treesvd_ppr_adjusts_total",
		"treesvd_ppr_states_repaired_total",
		"treesvd_tree_blocks_rebuilt_total",
		"treesvd_tree_blocks_skipped_total",
		"treesvd_batches_applied_total",
		"treesvd_snapshots_published_total",
		"treesvd_snapshot_age_seconds",
		"treesvd_tree_pass_nanos",
		"treesvd_pool_hits_total",
	} {
		if !strings.Contains(prom, "# TYPE "+name+" ") {
			t.Errorf("metric %s missing from the Prometheus export", name)
		}
	}
}

// traceLog is a concurrency-safe TraceHook recorder.
type traceLog struct {
	mu     sync.Mutex
	events []treesvd.TraceEvent
}

func (l *traceLog) hook(ev treesvd.TraceEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *traceLog) snapshot() []treesvd.TraceEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]treesvd.TraceEvent(nil), l.events...)
}

// tableRows are the stage table's rows in order, as TraceBatchEnd names
// them.
var tableRows = []string{"graph.advance", "ppr.repair", "ppr.refresh", "tree.level1",
	"tree.merge", "publish.build", "publish.wait", "publish.store"}

// checkBracket checks the documented bracket over one embedder's recorded
// events: per batch exactly one TraceBatchStart, then every
// TraceBlockRecompute, then exactly one TraceBatchEnd, in recorded order
// (block recomputes fire concurrently but always inside the bracket,
// which the per-batch serialization makes observable as a total order
// here); Seq counts batch attempts one by one. For every TraceBatchEnd,
// Stages names the rows the batch ran in table order — all of them on
// success, less tree.merge when no block was re-factored, and up to the
// failing row on error — and sums to within 10 % of Dur. It returns the
// TraceBatchEnd events.
func checkBracket(t *testing.T, events []treesvd.TraceEvent) []treesvd.TraceEvent {
	t.Helper()
	inBatch := false
	var ends []treesvd.TraceEvent
	recomputes := 0
	var seq uint64
	for i, ev := range events {
		switch ev.Kind {
		case treesvd.TraceBatchStart:
			if inBatch {
				t.Fatalf("event %d: nested TraceBatchStart", i)
			}
			if seq != 0 && ev.Seq != seq+1 {
				t.Fatalf("event %d: batch seq %d does not follow %d", i, ev.Seq, seq)
			}
			seq = ev.Seq
			inBatch = true
		case treesvd.TraceBlockRecompute:
			if !inBatch {
				t.Fatalf("event %d: TraceBlockRecompute outside the batch bracket", i)
			}
			if ev.Block < 0 {
				t.Fatalf("event %d: recompute with negative block %d", i, ev.Block)
			}
			recomputes++
		case treesvd.TraceBatchEnd:
			if !inBatch {
				t.Fatalf("event %d: TraceBatchEnd without a start", i)
			}
			if ev.Seq != seq {
				t.Fatalf("event %d: end seq %d does not match start seq %d", i, ev.Seq, seq)
			}
			if ev.Rebuilt != recomputes {
				t.Fatalf("event %d: %d blocks rebuilt, %d recompute events", i, ev.Rebuilt, recomputes)
			}
			var names []string
			var sum time.Duration
			for _, st := range ev.Stages {
				names = append(names, st.Stage)
				sum += st.Dur
			}
			want := tableRows
			if ev.Err != nil {
				want = tableRows[:len(names)]
			} else if ev.Rebuilt == 0 {
				want = slices.DeleteFunc(slices.Clone(tableRows), func(s string) bool { return s == "tree.merge" })
			}
			if !slices.Equal(names, want) {
				t.Fatalf("event %d: stages %v, want %v", i, names, want)
			}
			if sum > ev.Dur || sum < ev.Dur*9/10 {
				t.Fatalf("event %d: stages sum to %v of a %v batch, want within 10%%", i, sum, ev.Dur)
			}
			ends = append(ends, ev)
			inBatch, recomputes = false, 0
		default:
			t.Fatalf("event %d: unexpected kind %v", i, ev.Kind)
		}
	}
	if inBatch {
		t.Fatal("the last batch never ended")
	}
	return ends
}

// cancelOnSecondPoll is a Context whose Err reports cancellation from its
// second poll on: a batch passes ApplyEvents' own check and fails in the
// first stage that polls, the PPR repair.
type cancelOnSecondPoll struct {
	context.Context
	polls atomic.Int32
}

func (c *cancelOnSecondPoll) Err() error {
	if c.polls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestTraceHookOrdering drives batches through in-memory and durable
// embedders, with every touched block re-factored (Delta 1e-12) and with
// none (Delta 1e6), and checks each stream with checkBracket. A batch
// that fails in the stage table advances Seq and leaves the version, and
// clearing the hook stops the stream.
func TestTraceHookOrdering(t *testing.T) {
	subset := []int32{0, 8, 16, 24}
	for _, tc := range []struct {
		name    string
		delta   float64
		durable bool
	}{
		{"memory/triggered", 1e-12, false},
		{"memory/untriggered", 1e6, false},
		{"durable/triggered", 1e-12, true},
		{"durable/untriggered", 1e6, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := treesvd.Config{Dim: 4, Workers: 4, RMax: 1e-6, Delta: tc.delta}
			var emb *treesvd.Embedder
			if tc.durable {
				d, err := treesvd.Create(t.TempDir(), ringGraph(48), subset, treesvd.DurableConfig{Config: cfg, CheckpointEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				emb = d
			} else {
				var err error
				if emb, err = treesvd.New(ringGraph(48), subset, cfg); err != nil {
					t.Fatal(err)
				}
			}
			log := &traceLog{}
			emb.SetTraceHook(log.hook)
			const nb = 3
			rebuilt := 0
			for _, b := range chordBatches(48, nb) {
				n, err := emb.ApplyEvents(context.Background(), b)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt += n
			}
			if triggered := tc.delta < 1; triggered != (rebuilt > 0) {
				t.Fatalf("%d blocks rebuilt at Delta %g", rebuilt, tc.delta)
			}
			if ends := checkBracket(t, log.snapshot()); len(ends) != nb {
				t.Fatalf("%d TraceBatchEnd events, want %d", len(ends), nb)
			}
		})
	}

	emb, err := treesvd.New(ringGraph(48), subset, treesvd.Config{Dim: 4, Workers: 4, RMax: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	log := &traceLog{}
	emb.SetTraceHook(log.hook)
	batches := chordBatches(48, 3)
	if _, err := emb.ApplyEvents(context.Background(), batches[0]); err != nil {
		t.Fatal(err)
	}
	version := emb.Version()
	if _, err := emb.ApplyEvents(&cancelOnSecondPoll{Context: context.Background()}, batches[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch cancellation returned %v, want context.Canceled", err)
	}
	if emb.Version() != version {
		t.Fatalf("a failed batch moved the version from %d to %d", version, emb.Version())
	}
	if _, err := emb.ApplyEvents(context.Background(), batches[2]); err != nil {
		t.Fatal(err)
	}
	ends := checkBracket(t, log.snapshot())
	if len(ends) != 3 || ends[1].Err == nil || ends[2].Seq != ends[0].Seq+2 || emb.Version() != version+1 {
		t.Fatalf("batch ends %+v at version %d: want three, the middle one failed, Seq advanced by each and the version by the successes", ends, emb.Version())
	}

	// Clearing the hook stops the stream.
	n := len(log.snapshot())
	emb.SetTraceHook(nil)
	if _, err := emb.ApplyEvents(context.Background(), chordBatches(48, 4)[3]); err != nil {
		t.Fatal(err)
	}
	if got := len(log.snapshot()); got != n {
		t.Fatalf("hook fired after being cleared: %d -> %d events", n, got)
	}
}

// TestDurableMetricsAndTrace covers the durability slice: WAL counters,
// the fsync wait (the stage table's publish.wait row), the checkpoint
// counters and each checkpoint's synchronous save (the checkpoint.capture
// row, in no batch's trace) in Metrics().WAL and on /metrics, the
// publish.wait row on every traced durable batch, and a reopen that
// replays through the table without publishing per batch.
func TestDurableMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	cfg := treesvd.DurableConfig{
		Config:          treesvd.Config{Dim: 4},
		CheckpointEvery: -1,
	}
	d, err := treesvd.Create(dir, ringGraph(32), []int32{0, 8, 16}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &traceLog{}
	d.SetTraceHook(log.hook)
	for i, b := range chordBatches(32, 5) {
		if _, err := d.ApplyEvents(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		if i == 1 || i == 3 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := d.Metrics()
	if m.WAL == nil {
		t.Fatal("durable embedder reports no WAL metrics")
	}
	if m.WAL.Appends != 5 {
		t.Fatalf("WAL.Appends = %d, want 5", m.WAL.Appends)
	}
	if m.WAL.Fsyncs == 0 || m.WAL.AppendedBytes == 0 {
		t.Fatalf("WAL counters empty: %+v", *m.WAL)
	}
	// The fsync wait is observed once per acknowledged batch: each
	// batch's publish waits on its record's fsync exactly once.
	if m.WAL.SyncWait.Count != 5 {
		t.Fatalf("WAL.SyncWait.Count = %d, want one per acked batch (5)", m.WAL.SyncWait.Count)
	}
	if m.WAL.Checkpoints != 2 || m.WAL.CheckpointFailures != 0 {
		t.Fatalf("WAL.Checkpoints = %d, CheckpointFailures = %d, want 2 and 0", m.WAL.Checkpoints, m.WAL.CheckpointFailures)
	}
	for _, ev := range checkBracket(t, log.snapshot()) {
		waited := false
		for _, st := range ev.Stages {
			waited = waited || st.Stage == "publish.wait"
			if st.Stage == "checkpoint.capture" {
				t.Fatalf("durable batch %d traced the checkpoint capture that follows it", ev.Seq)
			}
		}
		if !waited {
			t.Fatalf("durable batch %d traced no publish.wait: %v", ev.Seq, ev.Stages)
		}
	}
	prom := func(d *treesvd.Embedder) string {
		rec := httptest.NewRecorder()
		d.MetricsRegistry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	page := prom(d)
	for _, series := range []string{
		"treesvd_wal_appends_total 5",
		`treesvd_stage_nanos_count{stage="publish.wait"} 5`,
		`treesvd_stage_nanos_count{stage="checkpoint.capture"} 2`,
		"treesvd_checkpoints_total 2",
		"treesvd_checkpoint_failures_total 0",
	} {
		if !strings.Contains(page, series+"\n") {
			t.Errorf("/metrics lacks %q", series)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := treesvd.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if r := d2.Recovery(); r.CheckpointSeq != 4 || r.ReplayedBatches != 1 {
		t.Fatalf("Recovery() = %+v, want checkpoint 4 and one replayed batch", r)
	}
	// Metrics are process-lifetime, not persisted: the reopened store
	// starts counting from zero. The replayed batch ran the table's
	// pipeline rows and published nothing of its own.
	if m := d2.Metrics(); m.WAL == nil || m.WAL.Appends != 0 || m.WAL.SyncWait.Count != 0 {
		t.Fatalf("reopened WAL metrics = %+v, want fresh counters", m.WAL)
	}
	if page := prom(d2); !strings.Contains(page, `treesvd_stage_nanos_count{stage="ppr.repair"} 1`+"\n") {
		t.Error("the replayed batch did not run the ppr.repair row once")
	}
}
