package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/client"
	"github.com/tree-svd/treesvd/internal/wire"
)

// newClient returns an SDK client pinned to one keep-alive connection and
// with retries off, so a failed request is counted, not hidden.
func newClient(url string, binary bool) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return client.New(url, client.WithHTTPClient(hc), client.WithRetries(0), client.WithBinary(binary)), tr
}

// tally is one load goroutine's share of the run's counters; goroutines
// keep their own and the run merges them after the loop.
type tally struct {
	attempted, failed, shed int64
	err                     error // first failure, for the report
}

func (t *tally) op(err error) error {
	t.attempted++
	if err != nil {
		t.failed++
		var ove *treesvd.OverloadError
		if errors.As(err, &ove) {
			t.shed++
		}
		if t.err == nil {
			t.err = err
		}
	}
	return err
}

// serveMixed drives the HTTP server through the client package over
// loopback on exactly two keep-alive connections: a closed-loop reader and
// an open-loop paced writer, each write timed from the moment it was due.
func (r *run) serveMixed() error {
	ctx := context.Background()
	sys, err := r.setUp()
	if err != nil {
		return err
	}
	defer sys.stop()
	reader, readerTr := newClient(sys.srv.URL(), false)
	writer, writerTr := newClient(sys.srv.URL(), false)
	defer readerTr.CloseIdleConnections()
	defer writerTr.CloseIdleConnections()

	next := 0    // batches sent so far, which is also the embedder's batch sequence
	var tw *twin // traced runs only, from the end of the warm-up
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	for ; next < r.sz.warmBatches; next++ {
		if _, err := writer.ApplyEvents(ctx, r.in.batches[next]); r.op(err) != nil {
			return fmt.Errorf("warm-up batch %d: %w", next, err)
		}
	}
	runtime.ReadMemStats(&memAfter)
	if r.rec != nil {
		r.values["treesvd.alloc_kb_per_batch"] = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / 1024 / float64(r.sz.warmBatches)
		if tw, err = r.startTwin(next); err != nil {
			return err
		}
	}
	lastVersion := uint64(0)
	for i := 0; i < r.sz.warmReads; i++ {
		recs, err := reader.Recommend(ctx, r.in.reads[i%len(r.in.reads)], recommendK)
		if r.op(err) != nil {
			return fmt.Errorf("warm-up read %d: %w", i, err)
		}
		lastVersion = recs.Version
	}

	before := sys.emb.Metrics()
	var wt, rt tally
	// A traced run's twin follows the writer on its own goroutine, so that
	// its work never makes the paced writer late.
	var twinQueue chan []treesvd.Event
	var twinDone sync.WaitGroup
	var twinErr error
	if tw != nil {
		twinQueue = make(chan []treesvd.Event, r.in.loopBatches) // one slot per send: the writer never waits
		twinDone.Add(1)
		go func() {
			defer twinDone.Done()
			for batch := range twinQueue {
				if twinErr == nil {
					twinErr = tw.apply(ctx, batch)
				}
			}
		}()
	}
	stopTwin := func() { // once the writer is done, on every path out
		if twinQueue != nil {
			close(twinQueue)
			twinDone.Wait()
			twinQueue = nil
		}
	}
	defer stopTwin()

	// The loop runs in segments: both connections go quiet at each of its
	// stops while the one-shot operations run. A traced run leaves the
	// segments of the first quarter untraced, as the reference the tracing
	// overhead is measured against.
	interval := time.Second / time.Duration(r.w.batchesPerSecond)
	traceFrom := r.in.loopBatches / 4
	hooked := false
	var writeLat, serviceLat, late, readLat, freshLat, refLat samples
	events, triggered, sent, reads := 0, 0, 0, 0
	var wall, calibrating time.Duration // the loop's own time, and the reader's away from reading
	for sent < r.in.loopBatches && wt.err == nil {
		end := sent + 1 // this segment sends batches sent to end-1 of the loop
		for end < r.in.loopBatches && !r.in.stopsAfter(next+end) {
			end++
		}
		if r.rec != nil && !hooked && sent >= traceFrom {
			sys.emb.SetTraceHook(r.rec.hook())
			hooked = true
		}
		t0 := time.Now()
		deadline := t0.Add(time.Duration(end-sent) * interval)
		var wg sync.WaitGroup
		wg.Add(2)
		go func(first int) { // the open-loop writer
			defer wg.Done()
			for i := first; i < end; i++ {
				due := t0.Add(time.Duration(i-first) * interval)
				time.Sleep(time.Until(due))
				batch := r.in.batches[next+i]
				start := time.Now()
				res, err := writer.ApplyEvents(ctx, batch)
				done := time.Now()
				sent++
				if wt.op(err) != nil {
					return // later batches build on this one; the run has failed
				}
				late.add(start.Sub(due))
				writeLat.add(done.Sub(due))
				serviceLat.add(done.Sub(start))
				events += len(batch)
				if res.Rebuilt > 0 {
					triggered++
				}
				if hooked {
					seq := int64(next + i + 1)
					r.rec.adopt(r.rec.add(spanClientWrite, 0, seq, start, done), seq)
				}
				if twinQueue != nil {
					twinQueue <- batch
				}
			}
		}(sent)
		go func() { // the closed-loop reader
			defer wg.Done()
			for ; ; reads++ {
				calibrating += r.cal.tick()
				start := time.Now()
				if !start.Before(deadline) {
					return
				}
				src := r.in.reads[reads%len(r.in.reads)]
				recs, err := reader.Recommend(ctx, src, recommendK)
				done := time.Now()
				if err == nil {
					err = checkRecs(recs.Recs)
				}
				if err == nil && recs.Version < lastVersion {
					err = fmt.Errorf("version went back from %d to %d", lastVersion, recs.Version)
				}
				if rt.op(err) != nil {
					continue
				}
				d := done.Sub(start)
				readLat.add(d)
				if recs.Version > lastVersion {
					freshLat.add(d)
					lastVersion = recs.Version
				}
				switch {
				case r.rec == nil:
				case !hooked:
					refLat.add(d)
				default:
					r.rec.add(spanClientRead, 0, int64(reads), start, done)
				}
			}
		}()
		wg.Wait()
		wall += time.Since(t0)
		if wt.err == nil && r.in.stopsAfter(next+sent) {
			if err := r.side(sys, next+sent); err != nil {
				return err
			}
		}
	}
	stopTwin()
	next += sent
	after := sys.emb.Metrics()

	for _, t := range []tally{wt, rt} {
		r.attempted += t.attempted
		r.failed += t.failed
	}
	if twinErr != nil {
		return fmt.Errorf("twin: %w", twinErr)
	}
	r.verify("writes", wt.err == nil, "%v", wt.err)
	r.verify("reads", rt.err == nil, "%v", rt.err)
	if len(readLat) == 0 || len(writeLat) == 0 {
		return fmt.Errorf("no successful operations: reads %v, writes %v", rt.err, wt.err)
	}
	r.counts["batches"] = len(writeLat)
	// The writer is paced, so the rate it got acknowledged does not move with
	// machine speed unless the server falls behind. Its batch times here are
	// sent → acknowledged: the open loop's queueing (due → acknowledged)
	// amplifies every stall and is reported per layer, as loadgen.write_*.
	r.values["events_per_s"] = float64(events) / wall.Seconds()
	r.values["batch_p50_ms"] = serviceLat.q(0.5) / 1e6
	r.values["batch_p99_ms"] = serviceLat.q(0.99) / 1e6
	r.setReadValues(readLat, freshLat, wall-calibrating)

	// Quiesced: every source's answer over HTTP must equal the final
	// snapshot's own.
	snap := sys.emb.Snapshot()
	for _, src := range r.in.subset {
		want, err := snap.Recommend(src, recommendK)
		if r.op(err) != nil {
			return fmt.Errorf("snapshot recommend %d: %w", src, err)
		}
		got, err := reader.Recommend(ctx, src, recommendK)
		if r.op(err) != nil {
			return fmt.Errorf("recommend %d: %w", src, err)
		}
		same := got.Version == snap.Version() && len(got.Recs) == len(want)
		for i := 0; same && i < len(want); i++ {
			same = got.Recs[i] == want[i]
		}
		r.verify("http-equals-snapshot", same, "source %d: HTTP %v at version %d, snapshot %v at version %d",
			src, got.Recs, got.Version, want, snap.Version())
	}
	if err := r.quality(sys, next); err != nil {
		return err
	}

	if r.rec != nil {
		r.values["treesvd.fresh_read_frac"] = ratio(float64(len(freshLat)), float64(len(readLat)))
		r.values["server.shed_frac"] = ratio(float64(wt.shed+rt.shed), float64(wt.attempted+rt.attempted))
		r.values["loadgen.late_p99_ms"] = late.q(0.99) / 1e6
		r.values["loadgen.write_p50_ms"] = writeLat.q(0.5) / 1e6
		r.values["loadgen.write_p99_ms"] = writeLat.q(0.99) / 1e6
		traced := r.rec.byName(spanClientRead)
		r.values["loadgen.trace_overhead_frac"] = ratio(traced.q(0.5), refLat.q(0.5)) - 1
		r.layerCounts(before, after, sent, events, triggered)
		if err := r.ladder(sys, tw, reader, &next); err != nil {
			return err
		}
		r.wireCosts()
		r.finishTwin(sys, tw)
	}
	return r.op(sys.stop())
}

// ladder serves one pre-drawn request sequence at four depths on the
// quiesced system — the snapshot directly, the handler into a recorder,
// loopback JSON, loopback binary — and then a few ingest batches through
// the handler, each followed by the first (cold) read of its snapshot.
func (r *run) ladder(sys *system, tw *twin, jsonClient *client.Client, next *int) error {
	ctx := context.Background()
	binClient, binTr := newClient(sys.srv.URL(), true)
	defer binTr.CloseIdleConnections()
	handler := sys.srv.Handler()
	snap := sys.emb.Snapshot()
	n := r.sz.ladderReads
	direct, viaHandler, viaJSON, viaBinary := make(samples, n), make(samples, n), make(samples, n), make(samples, n)
	depths := []struct {
		into samples
		call func(src int32) error
	}{
		{direct, func(src int32) error { _, err := snap.Recommend(src, recommendK); return err }},
		{viaHandler, func(src int32) error {
			req := httptest.NewRequest(http.MethodGet, "/v1/recommend?source="+strconv.Itoa(int(src))+"&k="+strconv.Itoa(recommendK), nil)
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				return fmt.Errorf("handler status %d: %s", w.Code, w.Body)
			}
			return nil
		}},
		{viaJSON, func(src int32) error { _, err := jsonClient.Recommend(ctx, src, recommendK); return err }},
		{viaBinary, func(src int32) error { _, err := binClient.Recommend(ctx, src, recommendK); return err }},
	}
	// The depths take turns on each request, so that a drift in machine
	// speed during the ladder falls on all four alike.
	for i := -r.sz.warmReads; i < n; i++ { // negative i: untimed warm-up
		r.cal.tick()
		src := r.in.reads[(i+len(r.in.reads))%len(r.in.reads)]
		for di, d := range depths {
			start := time.Now()
			err := d.call(src)
			if i >= 0 {
				d.into[i] = float64(time.Since(start))
			}
			if r.op(err) != nil {
				return fmt.Errorf("ladder depth %d, request %d: %w", di, i, err)
			}
		}
	}
	paired := func(a, b samples) float64 {
		diff := make(samples, len(a))
		for i := range a {
			diff[i] = a[i] - b[i]
		}
		return diff.q(0.5)
	}
	serverSelf, clientSelf := paired(viaHandler, direct), paired(viaJSON, viaHandler)
	r.values["treesvd.recommend_warm_p50_us"] = direct.q(0.5) / 1e3
	r.values["server.recommend_handler_p50_us"] = viaHandler.q(0.5) / 1e3
	r.values["server.recommend_self_us"] = serverSelf / 1e3
	r.values["client.recommend_json_p50_us"] = viaJSON.q(0.5) / 1e3
	r.values["client.recommend_binary_p50_us"] = viaBinary.q(0.5) / 1e3
	r.values["client.self_us"] = clientSelf / 1e3
	sum := direct.q(0.5) + serverSelf + clientSelf
	r.verify("ladder-sums", r.sz != full || math.Abs(sum-viaJSON.q(0.5)) <= 0.1*viaJSON.q(0.5),
		"direct + server self + client self = %.0f ns, loopback JSON p50 = %.0f ns", sum, viaJSON.q(0.5))

	var ingest samples
	for i := 0; i < r.sz.ladderBatches; i++ {
		var body bytes.Buffer
		if err := wire.WriteFrame(&body, wire.EncodeEvents(r.in.batches[*next])); err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/events", &body)
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
		w := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(w, req)
		ingest.add(time.Since(start))
		var err error
		if w.Code != http.StatusOK {
			err = fmt.Errorf("ingest handler status %d: %s", w.Code, w.Body)
		}
		if r.op(err) != nil {
			return err
		}
		if err := tw.apply(ctx, r.in.batches[*next]); err != nil {
			return err
		}
		*next++
		start = time.Now()
		_, err = sys.emb.Recommend(r.in.reads[i%len(r.in.reads)], recommendK)
		end := time.Now()
		if r.op(err) != nil {
			return err
		}
		r.rec.freshBySeq[int64(*next)] = r.rec.add(spanRecommend, 0, int64(i), start, end)
		tw.right()
	}
	r.values["server.ingest_handler_p50_ms"] = ingest.q(0.5) / 1e6
	return nil
}

// wireCosts times the two codecs on one representative read answer and one
// representative ingest batch, and sizes a read answer in both.
func (r *run) wireCosts() {
	recs := make([]wire.Rec, recommendK)
	dto := wire.RecommendDTO{Version: 12345, Source: r.in.subset[0], Recommendations: make([]wire.RecDTO, recommendK)}
	for i := range recs {
		recs[i] = wire.Rec{Node: int32(1000 + 37*i), Score: 1 / float64(i+3)}
		dto.Recommendations[i] = wire.RecDTO{Node: recs[i].Node, Score: recs[i].Score}
	}
	batch := r.in.batches[0]
	const reps = 5000
	perCall := func(f func()) float64 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return float64(time.Since(start)) / reps / 1e3
	}
	recsPayload := wire.EncodeRecs(dto.Version, dto.Source, recs)
	eventsPayload := wire.EncodeEvents(batch)
	r.values["wire.encode_recs_us"] = perCall(func() { wire.EncodeRecs(dto.Version, dto.Source, recs) })
	r.values["wire.decode_recs_us"] = perCall(func() { wire.DecodeRecs(recsPayload) })
	r.values["wire.encode_events_us"] = perCall(func() { wire.EncodeEvents(batch) })
	r.values["wire.decode_events_us"] = perCall(func() { wire.DecodeEvents(eventsPayload) })

	var jsonBody, frame bytes.Buffer
	jerr := json.NewEncoder(&jsonBody).Encode(dto)
	ferr := wire.WriteFrame(&frame, recsPayload)
	r.verify("wire-encode", jerr == nil && ferr == nil, "json: %v, frame: %v", jerr, ferr)
	r.values["wire.json_bytes_per_read"] = float64(jsonBody.Len())
	r.values["wire.binary_bytes_per_read"] = float64(frame.Len())
}
