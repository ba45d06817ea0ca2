package treesvd_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

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

func (l *traceLog) count(k treesvd.TraceKind) int {
	n := 0
	for _, ev := range l.snapshot() {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// TestTraceHookOrdering drives batches through ApplyEvents and checks the
// documented bracket: per batch exactly one TraceBatchStart, then every
// TraceBlockRecompute, then exactly one TraceBatchEnd, in recorded order
// (block recomputes fire concurrently but always inside the bracket,
// which the per-batch serialization makes observable as a total order
// here).
func TestTraceHookOrdering(t *testing.T) {
	g := ringGraph(48)
	// A tiny Delta forces every touched block to re-factor, so the test
	// observes TraceBlockRecompute events deterministically.
	emb, err := treesvd.New(g, []int32{0, 8, 16, 24}, treesvd.Config{Dim: 4, Workers: 4, Delta: 1e-12})
	if err != nil {
		t.Fatal(err)
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
	if rebuilt == 0 {
		t.Fatal("no blocks rebuilt; the trace test needs recompute events")
	}
	events := log.snapshot()
	inBatch := false
	var starts, ends, recomputes int
	var seq uint64
	for i, ev := range events {
		switch ev.Kind {
		case treesvd.TraceBatchStart:
			if inBatch {
				t.Fatalf("event %d: nested TraceBatchStart", i)
			}
			if ev.Seq <= seq {
				t.Fatalf("event %d: batch seq %d not increasing past %d", i, ev.Seq, seq)
			}
			seq = ev.Seq
			inBatch = true
			starts++
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
			if ev.Err != nil {
				t.Fatalf("event %d: unexpected batch error %v", i, ev.Err)
			}
			inBatch = false
			ends++
		default:
			t.Fatalf("event %d: unexpected kind %v", i, ev.Kind)
		}
	}
	if starts != nb || ends != nb {
		t.Fatalf("starts=%d ends=%d, want %d each", starts, ends, nb)
	}
	if recomputes != rebuilt {
		t.Fatalf("recompute events = %d, blocks rebuilt = %d", recomputes, rebuilt)
	}

	// Clearing the hook stops the stream.
	emb.SetTraceHook(nil)
	if _, err := emb.ApplyEvents(context.Background(), chordBatches(48, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if got := len(log.snapshot()); got != len(events) {
		t.Fatalf("hook fired after being cleared: %d -> %d events", len(events), got)
	}
}

// TestDurableMetricsAndTrace covers the durability slice: WAL counters and
// the fsync-wait histogram in Metrics().WAL, checkpoint trace events, and
// the single TraceRecovery on reopen.
func TestDurableMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	log := &traceLog{}
	cfg := treesvd.DurableConfig{
		Config:          treesvd.Config{Dim: 4},
		CheckpointEvery: -1,
		Trace:           log.hook,
	}
	d, err := treesvd.Create(dir, ringGraph(32), []int32{0, 8, 16}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range chordBatches(32, 4) {
		if _, err := d.ApplyEvents(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := d.Metrics()
	if m.WAL == nil {
		t.Fatal("durable embedder reports no WAL metrics")
	}
	if m.WAL.Appends != 4 {
		t.Fatalf("WAL.Appends = %d, want 4", m.WAL.Appends)
	}
	if m.WAL.Fsyncs == 0 || m.WAL.AppendedBytes == 0 {
		t.Fatalf("WAL counters empty: %+v", *m.WAL)
	}
	// The fsync wait is observed once per acknowledged batch: each
	// batch's publish waits on its record's fsync exactly once.
	if m.WAL.SyncWait.Count != 4 {
		t.Fatalf("WAL.SyncWait.Count = %d, want one per acked batch (4)", m.WAL.SyncWait.Count)
	}
	if m.WAL.Checkpoints != 2 {
		t.Fatalf("WAL.Checkpoints = %d, want 2", m.WAL.Checkpoints)
	}
	if got := log.count(treesvd.TraceCheckpoint); got != 2 {
		t.Fatalf("TraceCheckpoint events = %d, want 2", got)
	}
	reg := d.MetricsRegistry()
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "treesvd_wal_appends_total 4") {
		t.Fatal("treesvd_wal_appends_total not exported with the expected value")
	}
	if !strings.Contains(rec.Body.String(), "treesvd_wal_sync_wait_nanos_count 4") {
		t.Fatal("treesvd_wal_sync_wait_nanos not exported with one observation per acked batch")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	relog := &traceLog{}
	cfg.Trace = relog.hook
	d2, err := treesvd.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	recov := relog.snapshot()
	if len(recov) != 1 || recov[0].Kind != treesvd.TraceRecovery {
		t.Fatalf("expected exactly one TraceRecovery after Open, got %v", recov)
	}
	if want := d2.Recovery().ReplayedBatches; recov[0].Rebuilt != want {
		t.Fatalf("TraceRecovery.Rebuilt = %d, want %d replayed batches", recov[0].Rebuilt, want)
	}
	// Metrics are process-lifetime, not persisted: the reopened store
	// starts counting from zero.
	if m := d2.Metrics(); m.WAL == nil || m.WAL.Appends != 0 {
		t.Fatalf("reopened WAL metrics = %+v, want fresh counters", m.WAL)
	}
}
