package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tree-svd/treesvd/internal/wal"
)

// ingest runs an in-process workload: one closed-loop writer calling
// ApplyEvents (through the durable layer when the workload says so). No
// reader runs beside the writer; the loop stops at evenly spread points for
// a read probe and for the one-shot operations, whose time is left out of
// the loop's clock.
func (r *run) ingest() error {
	ctx := context.Background()
	sys, err := r.setUp()
	if err != nil {
		return err
	}
	defer sys.stop()
	next := 0        // batches applied to sys so far, which is also its batch sequence
	var tw *twin     // traced runs only, from the end of the warm-up
	tracing := false // traced runs only, from the end of the loop's reference quarter
	apply := func() (time.Duration, int, error) {
		start := time.Now()
		rebuilt, err := sys.apply(ctx, r.in.batches[next])
		d := time.Since(start)
		if r.op(err) != nil {
			return d, 0, fmt.Errorf("batch %d: %w", next, err)
		}
		next++
		if tracing && sys.dur != nil {
			r.rec.adopt(r.rec.add(spanDurableApply, 0, int64(next), start, start.Add(d)), int64(next))
		}
		if tw != nil {
			if err := tw.apply(ctx, r.in.batches[next-1]); err != nil {
				return d, 0, fmt.Errorf("twin batch %d: %w", next-1, err)
			}
		}
		return d, rebuilt, nil
	}

	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	for i := 0; i < r.sz.warmBatches; i++ {
		if _, _, err := apply(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&memAfter)
	if r.rec != nil {
		r.values["treesvd.alloc_kb_per_batch"] = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / 1024 / float64(r.sz.warmBatches)
		if tw, err = r.startTwin(next); err != nil {
			return err
		}
	}

	// A traced run applies the first quarter of its loop with tracing off,
	// as the reference the tracing overhead is measured against.
	reference := 0
	if r.rec != nil {
		reference = r.in.loopBatches / 4
	}
	var lat, refLat samples
	var reads probe
	triggered, events := 0, 0
	before := sys.emb.Metrics()
	loopStart := time.Now()
	deadline := loopStart.Add(time.Duration(r.seconds) * time.Second)
	var away time.Duration // spent calibrating, probing and at the stops
	for i := 0; i < r.in.loopBatches && time.Now().Before(deadline); i++ {
		away += r.cal.tick()
		if r.rec != nil && i == reference {
			sys.emb.SetTraceHook(r.rec.hook())
			tracing = true
		}
		d, rebuilt, err := apply()
		if err != nil {
			return err
		}
		events += len(r.in.batches[next-1])
		if rebuilt > 0 {
			triggered++
		}
		if i < reference {
			refLat.add(d)
		} else {
			lat.add(d)
		}
		stopped := time.Now()
		if (i+1)%r.in.probeEvery == 0 {
			if err := r.probeRound(&reads, sys, tw, next); err != nil {
				return err
			}
		}
		if r.in.stopsAfter(next) {
			if err := r.side(sys, next); err != nil {
				return err
			}
		}
		away += time.Since(stopped)
	}
	wall := time.Since(loopStart) - away
	after := sys.emb.Metrics()
	looped := len(lat) + len(refLat)
	r.counts["batches"] = len(lat)
	r.values["events_per_s"] = float64(events) / wall.Seconds()
	r.values["batch_p50_ms"] = lat.q(0.5) / 1e6
	r.values["batch_p99_ms"] = lat.q(0.99) / 1e6
	r.setReadValues(reads.all, reads.fresh, reads.busy)
	if err := r.quality(sys, next); err != nil {
		return err
	}

	if r.rec != nil {
		r.finishTwin(sys, tw)
		r.layerCounts(before, after, looped, events, triggered)
		r.values["loadgen.trace_overhead_frac"] = ratio(lat.q(0.5), refLat.q(0.5)) - 1
		if sys.dur != nil {
			r.values["durable.apply_p50_ms"] = lat.q(0.5) / 1e6
			r.walLayer(after)
			if err := r.recoveryLayer(sys); err != nil {
				return err
			}
		}
	}
	return r.op(sys.stop())
}

// probe collects the reads of an in-process workload's read probe.
type probe struct {
	all, fresh samples
	busy       time.Duration
}

// probeRound reads the snapshot that batch seq just published: the first
// Recommend on it is the fresh (cold) read and probeWarmReads more follow.
func (r *run) probeRound(p *probe, sys *system, tw *twin, seq int) error {
	for i := 0; i <= r.sz.probeWarmReads; i++ {
		n := len(p.all)
		src := r.in.reads[n%len(r.in.reads)]
		start := time.Now()
		recs, err := sys.emb.Recommend(src, recommendK)
		d := time.Since(start)
		if err == nil {
			err = checkRecs(recs)
		}
		if r.op(err) != nil {
			return fmt.Errorf("read %d (source %d): %w", n, src, err)
		}
		p.busy += d
		p.all.add(d)
		if i == 0 {
			p.fresh.add(d)
		}
		if r.rec != nil {
			id := r.rec.add(spanRecommend, 0, int64(n), start, start.Add(d))
			if i == 0 {
				r.rec.freshBySeq[int64(seq)] = id
				tw.right()
			}
		}
		r.cal.tick()
	}
	return nil
}

// setReadValues reports the read side: every read attempted, and the reads
// that were the first on a new snapshot.
func (r *run) setReadValues(all, fresh samples, wall time.Duration) {
	r.counts["reads"] = len(all)
	r.counts["fresh_reads"] = len(fresh)
	r.values["reads_per_s"] = float64(len(all)) / wall.Seconds()
	// The mean, not the median: fresh reads come in two modes of about equal
	// weight (some 0.6 and 1.0 ms in-process), and a median on the cliff
	// between them flips with the mix from run to run.
	r.values["fresh_read_mean_us"] = fresh.mean() / 1e3
	// The median read is bimodal on a shared box (the sibling hyperthread is
	// busy or it is not) and the p999 rides the ragged edge of the cold
	// mode, so neither gates anything; the traced run reports them.
	r.values["loadgen.read_p50_us"] = all.q(0.5) / 1e3
	r.values["loadgen.read_p999_us"] = all.q(0.999) / 1e3
}

// recoveryLayer splits the traced run's Open into checkpoint load and
// replay: one more Open right after an explicit checkpoint has an empty
// tail.
func (r *run) recoveryLayer(sys *system) error {
	if err := r.op(sys.dur.Checkpoint()); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if cks, err := wal.ListCheckpoints(wal.OS, sys.dir); err == nil && len(cks) > 0 {
		if st, err := os.Stat(filepath.Join(sys.dir, cks[len(cks)-1].Name)); err == nil {
			r.values["durable.checkpoint_bytes"] = float64(st.Size())
		}
	}
	load, err := r.openCopy(sys, 0)
	if err != nil {
		return err
	}
	tail := r.in.checkpointEvery() - 1
	r.values["durable.checkpoint_load_ms"] = float64(load) / 1e6
	r.values["durable.replay_ms_per_batch"] = (r.recoveries.q(0.5) - float64(load)) / 1e6 / float64(tail)
	return nil
}
