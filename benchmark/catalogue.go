package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is the length of the timed loop the driver asks for; the
// manifest records it and the suite mode uses it.
const runSeconds = 30

// workload is one named traffic mix. Every workload runs the same phases
// (set-up, warm-up, the timed loop with its stops for the one-shot
// operations, quality); the workload decides what the timed loop carries.
type workload struct {
	name string
	why  string
	// batchSize is the number of events per ApplyEvents call.
	batchSize int
	// batchesPerSecond sizes the timed loop's plan: it holds
	// batchesPerSecond × seconds batches, and the loop ends when the plan is
	// exhausted or the seconds have elapsed, whichever comes first. At the
	// closed-loop rates the plan, with its read probes and stops, takes the
	// reference box about four fifths of the seconds, so a fixed seed
	// normally repeats the same work exactly; serve-mixed's is the open-loop
	// pacing rate.
	batchesPerSecond int
	durable          bool
	serve            bool
}

var workloads = []workload{
	{
		name:      "ingest-churn",
		why:       "48-event batches trip the Eqn. 2 trigger almost every time, so block refactors and upper merges are ~80% of a batch and publish ~10%: where a core optimisation must show and a publish one must not",
		batchSize: 48, batchesPerSecond: 34,
	},
	{
		name:      "ingest-trickle",
		why:       "4-event batches leave the trigger idle on the median batch, so the whole-state publish (ToCSR + neighbour copy) is ~65% of it and PPR repair ~15%; core shows only in the tail",
		batchSize: 4, batchesPerSecond: 140,
	},
	{
		name:      "durable-trickle",
		why:       "the trickle stream through the durable layer (per-batch fsync, background checkpoints); twelve times an Open of a copy of the store replays its WAL tail: fsync on the ack path, the only WAL recovery",
		batchSize: 4, batchesPerSecond: 92, durable: true,
	},
	{
		name:      "serve-mixed",
		why:       "reads beside writes over loopback HTTP on two keep-alive connections: a closed-loop Zipf Recommend reader and an open-loop writer at 50 batches/s x 4 events; the first read after each write is cold",
		batchSize: 4, batchesPerSecond: 50, serve: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric describes one reported number. Bound is set on end-to-end metrics
// only. README.md says what each measures and, for a per-layer metric,
// which end-to-end metric it should move.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	// median marks a timing that is the median of its samples, which is
	// scaled by calibrator.medianSpeed instead of calibrator.speed.
	median bool
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them: the ingest workloads get their read numbers from the
// read probe spread through the timed loop, serve-mixed gets its batch
// numbers from the paced writer, and recovery is Open for durable-trickle
// and LoadFile of a SaveFile elsewhere.
//
// The timing bounds are the widest the driver allows. They are sized to
// the sandbox, not to the library: with calibration, ten back-to-back runs
// of one commit still spread by 5 % of the median in a quiet quarter of an
// hour and by 20 % in a busy one (README.md, "Machine-speed calibration").
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, median: true},
	{name: "events_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "batch_p50_ms", unit: "ms", better: "lower", bound: 0.25, median: true},
	{name: "batch_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "recovery_s", unit: "s", better: "lower", bound: 0.25, median: true},
	{name: "reads_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "fresh_read_mean_us", unit: "us", better: "lower", bound: 0.25},
	{name: "recon_rel_err", unit: "ratio", better: "lower", bound: 0.02},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.15},
}

// perLayer lists the traced run's numbers; layer = package name.
var perLayer = []metric{
	{name: "graph.apply_us_per_batch", unit: "us", better: "lower"},
	{name: "graph.effective_event_frac", unit: "ratio", better: "higher"},

	{name: "ppr.repair_p50_ms", unit: "ms", better: "lower", median: true},
	{name: "ppr.repair_share", unit: "ratio", better: "lower"},
	{name: "ppr.pushes_per_event", unit: "1/event", better: "lower"},
	{name: "ppr.adjusts_per_event", unit: "1/event", better: "lower"},

	{name: "core.update_p50_ms", unit: "ms", better: "lower", median: true},
	{name: "core.update_p99_ms", unit: "ms", better: "lower"},
	{name: "core.update_share", unit: "ratio", better: "lower"},
	{name: "core.triggered_batch_frac", unit: "ratio", better: "lower"},
	{name: "core.blocks_rebuilt_per_batch", unit: "1/batch", better: "lower"},
	{name: "core.blocks_skipped_frac", unit: "ratio", better: "higher"},
	{name: "core.upper_merges_per_batch", unit: "1/batch", better: "lower"},
	{name: "core.block_factor_mean_us", unit: "us", better: "lower"},
	{name: "core.merge_mean_ms", unit: "ms", better: "lower"},
	{name: "core.right_embedding_p50_ms", unit: "ms", better: "lower", median: true},

	{name: "linalg.svdtrunc_merge_ms", unit: "ms", better: "lower", median: true},
	{name: "rsvd.sparse_block_us", unit: "us", better: "lower"},

	{name: "sparse.tocsr_p50_ms", unit: "ms", better: "lower", median: true},
	{name: "sparse.tocsr_share", unit: "ratio", better: "lower"},
	{name: "sparse.nnz", unit: "count", better: "lower"},

	{name: "treesvd.apply_p50_ms", unit: "ms", better: "lower", median: true},
	{name: "treesvd.apply_self_share", unit: "ratio", better: "lower"},
	{name: "treesvd.recommend_warm_p50_us", unit: "us", better: "lower", median: true},
	{name: "treesvd.recommend_fresh_p50_us", unit: "us", better: "lower", median: true},
	{name: "treesvd.fresh_read_frac", unit: "ratio", better: "lower"},
	{name: "treesvd.alloc_kb_per_batch", unit: "KiB", better: "lower"},

	{name: "server.recommend_handler_p50_us", unit: "us", better: "lower", median: true},
	{name: "server.recommend_self_us", unit: "us", better: "lower", median: true},
	{name: "server.ingest_handler_p50_ms", unit: "ms", better: "lower", median: true},
	{name: "server.shed_frac", unit: "ratio", better: "lower"},

	{name: "wire.encode_recs_us", unit: "us", better: "lower"},
	{name: "wire.decode_recs_us", unit: "us", better: "lower"},
	{name: "wire.encode_events_us", unit: "us", better: "lower"},
	{name: "wire.decode_events_us", unit: "us", better: "lower"},
	{name: "wire.json_bytes_per_read", unit: "bytes", better: "lower"},
	{name: "wire.binary_bytes_per_read", unit: "bytes", better: "lower"},

	{name: "client.recommend_json_p50_us", unit: "us", better: "lower", median: true},
	{name: "client.recommend_binary_p50_us", unit: "us", better: "lower", median: true},
	{name: "client.self_us", unit: "us", better: "lower", median: true},

	{name: "wal.append_p50_us", unit: "us", better: "lower", median: true},
	{name: "wal.fsync_p50_us", unit: "us", better: "lower", median: true},
	{name: "wal.fsyncs_per_batch", unit: "1/batch", better: "lower"},
	{name: "wal.bytes_per_event", unit: "bytes", better: "lower"},

	{name: "durable.apply_p50_ms", unit: "ms", better: "lower", median: true},
	{name: "durable.overhead_frac", unit: "ratio", better: "lower"},
	{name: "durable.checkpoint_mean_ms", unit: "ms", better: "lower"},
	{name: "durable.checkpoint_bytes", unit: "bytes", better: "lower"},
	{name: "durable.replay_ms_per_batch", unit: "ms", better: "lower"},
	{name: "durable.checkpoint_load_ms", unit: "ms", better: "lower"},

	{name: "loadgen.read_p50_us", unit: "us", better: "lower", median: true},
	{name: "loadgen.read_p999_us", unit: "us", better: "lower"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.write_p50_ms", unit: "ms", better: "lower", median: true},
	{name: "loadgen.write_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "loadgen.machine_speed", unit: "ratio", better: "higher"},
	{name: "loadgen.stolen_frac", unit: "ratio", better: "lower"},
}

// manifestJSON renders BENCHMARK.json from the catalogue, so the committed
// file cannot drift from what the program prints (a test compares them).
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, x := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{x.name, x.unit, x.better, x.bound})
	}
	for _, x := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{x.name, x.unit, x.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // static data; cannot fail
	}
	return buf.Bytes()
}
