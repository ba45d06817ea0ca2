package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/linalg"
	"github.com/tree-svd/treesvd/internal/rsvd"
)

// adopt makes the facade's apply span of batch seq a child of an outer
// span (the durable layer's or the HTTP client's call that caused it).
func (r *recorder) adopt(parent int, seq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id := r.applyBySeq[seq]; id != 0 {
		r.spans[id-1].Parent = parent
	}
}

// startTwin builds the twin from the run's inputs and brings it up to the
// n warm-up batches the system has already applied.
func (r *run) startTwin(n int) (*twin, error) {
	t, err := newTwin(r.in.graph.Clone(), r.in.subset, r.in.cfg, r.rec)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	for i := 0; i < n; i++ {
		if err := t.apply(context.Background(), r.in.batches[i]); err != nil {
			return nil, fmt.Errorf("twin batch %d: %w", i, err)
		}
	}
	return t, nil
}

// finishTwin checks that the twin landed on the facade's embedding and
// derives the per-layer numbers from its spans.
func (r *run) finishTwin(sys *system, t *twin) {
	diff := maxAbsDiff(sys.emb.Embedding(), toRows(t.tree.Embedding()))
	r.verify("twin-embedding", diff <= 1e-9, "twin embedding differs from the facade's by %g", diff)

	r.values["graph.effective_event_frac"] = ratio(float64(t.applied), float64(t.submitted))
	r.values["sparse.nnz"] = float64(t.csr.NNZ())
	r.spanValues()
	r.kernels(t)
}

func toRows(m *linalg.Dense) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// spanValues derives the per-layer timings from the recorded spans. A
// layer's share is its total time over the total of the treesvd.apply
// spans it sits under; the facade's self time is what its children do not
// cover.
func (r *run) spanValues() {
	apply := r.rec.byName(spanApply)
	total := apply.sum()
	r.counts["traced_batches"] = len(apply)
	r.values["treesvd.apply_p50_ms"] = apply.q(0.5) / 1e6
	self := r.rec.selfTimes(spanApply)
	r.values["treesvd.apply_self_share"] = ratio(self.sum(), total)

	graphApply, repair := r.rec.byName(spanGraphApply), r.rec.byName(spanRepair)
	update, tocsr := r.rec.byName(spanUpdate), r.rec.byName(spanToCSR)
	r.values["graph.apply_us_per_batch"] = graphApply.mean() / 1e3
	r.values["ppr.repair_p50_ms"] = repair.q(0.5) / 1e6
	r.values["ppr.repair_share"] = ratio(repair.sum(), total)
	r.values["core.update_p50_ms"] = update.q(0.5) / 1e6
	r.values["core.update_p99_ms"] = update.q(0.99) / 1e6
	r.values["core.update_share"] = ratio(update.sum(), total)
	r.values["sparse.tocsr_p50_ms"] = tocsr.q(0.5) / 1e6
	r.values["sparse.tocsr_share"] = ratio(tocsr.sum(), total)
	r.values["core.right_embedding_p50_ms"] = r.rec.byName(spanRight).q(0.5) / 1e6

	// The layers measured on the twin must account for the facade's time:
	// if they add up to much more than the span they sit under, the replay
	// is not the computation the facade runs. Checked where the twin runs
	// alone, right after the facade; beside serve-mixed's reader and server
	// it competes for the two cores differently than the facade did.
	children := graphApply.sum() + repair.sum() + update.sum() + tocsr.sum()
	r.verify("attribution", r.sz != full || r.w.serve || children <= 1.1*total,
		"layer spans sum to %.0f%% of the treesvd.apply spans they sit under", 100*children/total)

	var fresh, warm samples
	freshIDs := map[int]bool{}
	for _, id := range r.rec.freshBySeq {
		freshIDs[id] = true
	}
	for _, s := range r.rec.spans {
		switch {
		case s.Name != spanRecommend:
		case freshIDs[s.ID]:
			fresh = append(fresh, s.dur())
		default:
			warm = append(warm, s.dur())
		}
	}
	if len(warm) > 0 { // serve-mixed takes its warm reads from the ladder instead
		r.values["treesvd.recommend_warm_p50_us"] = warm.q(0.5) / 1e3
	}
	r.values["treesvd.recommend_fresh_p50_us"] = fresh.q(0.5) / 1e3
	if r.values["treesvd.fresh_read_frac"] == 0 {
		r.values["treesvd.fresh_read_frac"] = ratio(float64(len(fresh)), float64(len(fresh)+len(warm)))
	}
}

// layerCounts turns Metrics() deltas over the timed loop into per-event and
// per-batch counts. With a fixed seed these repeat exactly, as long as the
// loop exhausted its plan.
func (r *run) layerCounts(before, after treesvd.Metrics, batches, events, triggered int) {
	b, ev := float64(batches), float64(events)
	rebuilt := float64(after.BlocksRebuilt - before.BlocksRebuilt + after.BlocksUpdated - before.BlocksUpdated)
	skipped := float64(after.BlocksSkipped - before.BlocksSkipped)
	r.values["ppr.pushes_per_event"] = ratio(float64(after.Pushes-before.Pushes), ev)
	r.values["ppr.adjusts_per_event"] = ratio(float64(after.Adjusts-before.Adjusts), ev)
	r.values["core.triggered_batch_frac"] = ratio(float64(triggered), b)
	r.values["core.blocks_rebuilt_per_batch"] = ratio(rebuilt, b)
	r.values["core.blocks_skipped_frac"] = ratio(skipped, skipped+rebuilt)
	r.values["core.upper_merges_per_batch"] = ratio(float64(after.UpperMerges-before.UpperMerges), b)
	r.values["core.block_factor_mean_us"] = meanBetween(before.BlockFactor, after.BlockFactor) / 1e3
	r.values["core.merge_mean_ms"] = meanBetween(before.Merge, after.Merge) / 1e6
}

// meanBetween is the mean duration, in nanoseconds, of the observations a
// lifetime histogram gained between two readings.
func meanBetween(a, b treesvd.DurationStats) float64 {
	return ratio(float64(b.Count)*float64(b.Mean)-float64(a.Count)*float64(a.Mean), float64(b.Count-a.Count))
}

// walLayer reads the durability layer's own counters; m is the embedder's
// metrics at the end of the timed loop.
func (r *run) walLayer(m treesvd.Metrics) {
	w := m.WAL
	if w == nil {
		return
	}
	r.values["wal.append_p50_us"] = float64(w.Append.P50) / 1e3
	r.values["wal.fsync_p50_us"] = float64(w.Fsync.P50) / 1e3
	r.values["wal.fsyncs_per_batch"] = ratio(float64(w.Fsyncs), float64(w.Appends))
	r.values["wal.bytes_per_event"] = ratio(float64(w.AppendedBytes), float64(m.EventsApplied))
	r.values["durable.checkpoint_mean_ms"] = float64(w.Checkpoint.Mean) / 1e6
	r.values["durable.overhead_frac"] = ratio(r.values["durable.apply_p50_ms"], r.values["treesvd.apply_p50_ms"]) - 1
}

// kernels times the two kernels under the tree's costs, on inputs of the
// shape the tree feeds them: the randomized SVD of each level-1 block of
// the twin's final matrix, and the truncated SVD of a dense
// |S|×(Branch·Dim) merge input.
func (r *run) kernels(t *twin) {
	cfg := r.in.cfg
	m := t.prox.M
	var block samples
	var kerr error
	for j := 0; j < m.NumBlocks() && kerr == nil; j++ {
		csr := m.BlockCSR(j)
		start := time.Now()
		_, kerr = rsvd.Sparse(csr, rsvd.Options{Rank: cfg.Dim, Seed: cfg.Seed + int64(j), Workers: cfg.Workers})
		block.add(time.Since(start))
	}
	r.verify("rsvd-kernel", r.op(kerr) == nil, "%v", kerr)
	r.values["rsvd.sparse_block_us"] = block.mean() / 1e3

	in := rsvd.GaussianDense(rand.New(rand.NewSource(cfg.Seed)), len(r.in.subset), cfg.Branch*cfg.Dim)
	var merge samples
	for i := 0; i < 20; i++ {
		start := time.Now()
		linalg.SVDTruncW(in, cfg.Dim, cfg.Workers)
		merge.add(time.Since(start))
	}
	r.values["linalg.svdtrunc_merge_ms"] = merge.q(0.5) / 1e6
}

// writeTrace writes the run's spans, with the provenance header, to
// trace-<workload>.json in the output directory.
func (r *run) writeTrace() error {
	f, err := os.Create(filepath.Join(r.outDir, "trace-"+r.w.name+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{r.provenance(), r.rec.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
