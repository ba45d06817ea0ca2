// Command loadgen drives the treesvd HTTP service with an open-loop
// workload and reports latency percentiles per offered-load point. Open
// loop means requests launch on the arrival schedule regardless of how
// many are still in flight, so queueing delay shows up in the numbers
// instead of silently throttling the generator (the coordinated-omission
// trap of closed-loop benchmarks).
//
// By default it builds a synthetic embedder in process, serves it on a
// loopback listener and measures through the real HTTP stack — fully
// self-contained, which is how `make bench-serve` runs it. Point -addr at
// an already-running `serve` process to measure a remote deployment.
//
// Sources for reads are drawn Zipf-skewed over the subset (-skew), the
// read/write mix is -readmix, and each load point in -rates runs for
// -duration. Results go to -out as JSON:
//
//	{"points": [{"offered_rps": 400, "p50_us": ..., "p99_us": ..., "p999_us": ...}, ...]}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/client"
	"github.com/tree-svd/treesvd/server"
)

// pointResult is one offered-load point. achieved_rps and the latency
// percentiles cover accepted (served) requests only — goodput — so a
// point past the knee shows bounded accepted latency plus a shed count,
// not percentiles polluted by fast 503s. Before admission control
// existed shed was always 0 and the fields read exactly as before.
type pointResult struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Requests    int     `json:"requests"`
	Reads       int     `json:"reads"`
	Writes      int     `json:"writes"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	P999us      float64 `json:"p999_us"`
	MaxUs       float64 `json:"max_us"`
}

// overloadResult characterizes one deliberately-past-the-knee point: the
// knee is the best achieved throughput across the sweep, the overload
// point offers twice that, and requests split into accepted (served)
// versus shed (admission-control 503). Graceful degradation means the
// accepted side stays fast — accepted_p99_within_3x records whether its
// p99 held within 3x the unloaded p99 from the sweep's lightest point,
// plus the server's default admission queue wait (25ms): time spent in
// the gate's queue is legitimate accepted-side latency under overload,
// and a couple of ms on top keeps scheduler noise on small smoke-scale
// samples from flapping the verdict.
// Unlike the sweep, the overload point bounds outstanding requests (the
// wrk2 compromise): arrivals stay on schedule, but once maxOutstanding
// are in flight, further arrivals count as unlaunched instead of piling
// client-side goroutines onto the same box — on a small machine an
// unbounded open loop at 2x the knee measures generator self-queueing,
// not the server. Unlaunched requests are overload the gate never got
// to see; they are reported, not hidden.
type overloadResult struct {
	OfferedRPS       float64 `json:"offered_rps"`
	KneeRPS          float64 `json:"knee_rps"`
	Requests         int     `json:"requests"`
	Accepted         int     `json:"accepted"`
	Shed             int     `json:"shed"`
	Unlaunched       int     `json:"unlaunched"`
	Errors           int     `json:"errors"`
	ShedRate         float64 `json:"shed_rate"`
	AcceptedP50us    float64 `json:"accepted_p50_us"`
	AcceptedP99us    float64 `json:"accepted_p99_us"`
	ShedP99us        float64 `json:"shed_p99_us"`
	UnloadedP99us    float64 `json:"unloaded_p99_us"`
	AcceptedWithin3x bool    `json:"accepted_p99_within_3x"`
}

type benchReport struct {
	GeneratedAt string          `json:"generated_at"`
	Target      string          `json:"target"`
	Nodes       int             `json:"nodes"`
	SubsetSize  int             `json:"subset_size"`
	Dim         int             `json:"dim"`
	ReadMix     float64         `json:"read_mix"`
	Skew        float64         `json:"skew"`
	K           int             `json:"k"`
	DurationSec float64         `json:"duration_sec_per_point"`
	Binary      bool            `json:"binary_codec"`
	Points      []pointResult   `json:"points"`
	Overload    *overloadResult `json:"overload,omitempty"`
}

func main() {
	var (
		addr     = flag.String("addr", "", "target server (empty = self-contained in-process server)")
		rates    = flag.String("rates", "200,500,1000", "comma-separated offered loads in req/s (>=3 points)")
		duration = flag.Duration("duration", 3*time.Second, "measurement window per load point")
		readmix  = flag.Float64("readmix", 0.9, "fraction of requests that are reads (Recommend)")
		skew     = flag.Float64("skew", 1.1, "Zipf s parameter for read-key skew (>1)")
		k        = flag.Int("k", 10, "top-k per Recommend")
		binary   = flag.Bool("binary", false, "use the binary frame codec for reads")
		out      = flag.String("out", "BENCH_SERVE.json", "output JSON path")
		seed     = flag.Int64("seed", 1, "workload seed")
		nodes    = flag.Int("nodes", 4000, "in-process: initial node count")
		edges    = flag.Int("edges", 20000, "in-process: initial edge count")
		subset   = flag.Int("subset", 128, "in-process: subset size")
		dim      = flag.Int("dim", 16, "in-process: embedding dimension")
		short    = flag.Bool("short", false, "CI smoke: tiny graph, short windows, low rates")
		overload = flag.Bool("overload", true, "after the sweep, run one point at 2x the observed knee and report accepted/shed split")
		readSlot = flag.Int("read-slots", 0, "in-process: admission slots per read endpoint (0 = server default, -1 = no gate)")
		ingSlot  = flag.Int("ingest-slots", 0, "in-process: admission slots for ingest (0 = server default, -1 = no gate)")
		queueDep = flag.Int("queue-depth", 0, "in-process: admission wait-queue depth (0 = 2x slots, -1 = no queue)")
		ovCap    = flag.Int("overload-cap", 256, "overload phase: max outstanding requests (size a few multiples past the admission gate)")
	)
	flag.Parse()

	if *short {
		*rates = "100,200,400"
		*duration = 400 * time.Millisecond
		*nodes, *edges, *subset, *dim = 600, 2400, 48, 8
	}
	offered, err := parseRates(*rates)
	if err != nil {
		fail(err)
	}
	if len(offered) < 3 {
		fail(fmt.Errorf("need at least 3 load points, got %d (-rates %q)", len(offered), *rates))
	}

	target := *addr
	var subsetIDs []int32
	var capacity int
	if target == "" {
		emb, err := buildSynthetic(*nodes, *edges, *subset, *dim, *seed)
		if err != nil {
			fail(err)
		}
		srv := server.New(emb, server.Options{
			Admission: server.AdmissionConfig{ReadSlots: *readSlot, IngestSlots: *ingSlot, QueueDepth: *queueDep},
		})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			fail(err)
		}
		defer srv.Shutdown(context.Background())
		target = srv.URL()
		subsetIDs = emb.Subset()
		capacity = 2 * *nodes
		fmt.Printf("loadgen: in-process server at %s (%d nodes, |S|=%d, d=%d)\n",
			target, *nodes, len(subsetIDs), *dim)
	} else {
		c := client.New(target, client.WithRetries(0))
		ver, err := c.Version(context.Background())
		if err != nil {
			fail(fmt.Errorf("probing %s: %w", target, err))
		}
		x, err := c.Embedding(context.Background())
		if err != nil {
			fail(fmt.Errorf("probing subset of %s: %w", target, err))
		}
		subsetIDs = x.Nodes
		capacity = ver.NumNodes // stay within what the server already holds
		fmt.Printf("loadgen: target %s (version %d, %d nodes, |S|=%d)\n",
			target, ver.Version, ver.NumNodes, len(subsetIDs))
	}
	if len(subsetIDs) == 0 {
		fail(fmt.Errorf("target has an empty subset"))
	}

	report := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Target:      target,
		Nodes:       capacity,
		SubsetSize:  len(subsetIDs),
		Dim:         *dim,
		ReadMix:     *readmix,
		Skew:        *skew,
		K:           *k,
		DurationSec: duration.Seconds(),
		Binary:      *binary,
	}
	for _, rps := range offered {
		pt := runPoint(target, rps, *duration, *readmix, *skew, *k, *binary, *seed, subsetIDs, capacity)
		report.Points = append(report.Points, pt)
		fmt.Printf("loadgen: %7.0f req/s offered -> %7.0f served, p50 %8.0fus  p99 %8.0fus  p999 %8.0fus  (%d shed, %d errors / %d reqs)\n",
			pt.OfferedRPS, pt.AchievedRPS, pt.P50us, pt.P99us, pt.P999us, pt.Shed, pt.Errors, pt.Requests)
	}

	if *overload {
		// Knee = best achieved throughput; unloaded baseline = p99 at
		// the lightest offered point (the -rates order is the user's).
		knee, unloaded := 0.0, report.Points[0]
		for _, pt := range report.Points {
			if pt.AchievedRPS > knee {
				knee = pt.AchievedRPS
			}
			if pt.OfferedRPS < unloaded.OfferedRPS {
				unloaded = pt
			}
		}
		ov := runOverload(target, knee, unloaded.P99us, *duration, *readmix, *skew, *k, *binary, *seed, *ovCap, subsetIDs, capacity)
		report.Overload = &ov
		fmt.Printf("loadgen: overload %7.0f req/s (2x knee %.0f) -> %d accepted (p99 %8.0fus, unloaded %8.0fus, within 3x: %v), %d shed (p99 %8.0fus), %d unlaunched, %d errors\n",
			ov.OfferedRPS, ov.KneeRPS, ov.Accepted, ov.AcceptedP99us, ov.UnloadedP99us, ov.AcceptedWithin3x, ov.Shed, ov.ShedP99us, ov.Unlaunched, ov.Errors)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("loadgen: wrote %s (%d load points)\n", *out, len(report.Points))
}

// runPoint offers rps requests/second for window and returns the latency
// distribution. Arrivals are scheduled against the wall clock: if the
// server falls behind, later requests still launch on time and absorb the
// queueing delay.
func runPoint(target string, rps float64, window time.Duration, readmix, skew float64, k int, binary bool, seed int64, subset []int32, capacity int) pointResult {
	interval := time.Duration(float64(time.Second) / rps)
	total := int(window.Seconds() * rps)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, skew, 1, uint64(len(subset)-1))

	// Pre-draw the schedule so the dispatch loop does no rng work.
	type req struct {
		read bool
		src  int32
		u, v int32
	}
	plan := make([]req, total)
	for i := range plan {
		if rng.Float64() < readmix {
			plan[i] = req{read: true, src: subset[zipf.Uint64()]}
		} else {
			plan[i] = req{u: int32(rng.Intn(capacity)), v: int32(rng.Intn(capacity))}
		}
	}

	opts := []client.Option{client.WithRetries(0)}
	if binary {
		opts = append(opts, client.WithBinary(true))
	}
	c := client.New(target, opts...)
	ctx := context.Background()

	var mu sync.Mutex
	latencies := make([]time.Duration, 0, total)
	var sheds, errs, reads, writes int
	var wg sync.WaitGroup
	start := time.Now()
	for i := range plan {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(r req) {
			defer wg.Done()
			t0 := time.Now()
			var err error
			if r.read {
				_, err = c.Recommend(ctx, r.src, k)
			} else {
				_, err = c.ApplyEvents(ctx, []treesvd.Event{{U: r.u, V: r.v, Type: treesvd.Insert}})
			}
			lat := time.Since(t0)
			var ove *treesvd.OverloadError
			mu.Lock()
			switch {
			case err == nil:
				latencies = append(latencies, lat)
			case errors.As(err, &ove):
				sheds++
			default:
				errs++
			}
			if r.read {
				reads++
			} else {
				writes++
			}
			mu.Unlock()
		}(plan[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	return pointResult{
		OfferedRPS:  rps,
		AchievedRPS: float64(len(latencies)) / elapsed.Seconds(),
		Requests:    total,
		Reads:       reads,
		Writes:      writes,
		Shed:        sheds,
		Errors:      errs,
		P50us:       quantileUs(latencies, 0.50),
		P99us:       quantileUs(latencies, 0.99),
		P999us:      quantileUs(latencies, 0.999),
		MaxUs:       quantileUs(latencies, 1),
	}
}

// runOverload offers 2x the knee throughput for window and splits the
// outcomes: accepted requests (served responses, timed), sheds
// (admission-control *treesvd.OverloadError, also timed — rejections
// must be fast) and everything else as errors. Same open-loop dispatch
// as runPoint, so queueing delay lands in the accepted numbers.
func runOverload(target string, knee, unloadedP99us float64, window time.Duration, readmix, skew float64, k int, binary bool, seed int64, maxOutstanding int, subset []int32, capacity int) overloadResult {
	rps := 2 * knee
	interval := time.Duration(float64(time.Second) / rps)
	total := int(window.Seconds() * rps)
	rng := rand.New(rand.NewSource(seed + 1))
	zipf := rand.NewZipf(rng, skew, 1, uint64(len(subset)-1))

	type req struct {
		read bool
		src  int32
		u, v int32
	}
	plan := make([]req, total)
	for i := range plan {
		if rng.Float64() < readmix {
			plan[i] = req{read: true, src: subset[zipf.Uint64()]}
		} else {
			plan[i] = req{u: int32(rng.Intn(capacity)), v: int32(rng.Intn(capacity))}
		}
	}

	opts := []client.Option{client.WithRetries(0)}
	if binary {
		opts = append(opts, client.WithBinary(true))
	}
	c := client.New(target, opts...)
	ctx := context.Background()

	slots := make(chan struct{}, max(maxOutstanding, 1))
	var mu sync.Mutex
	accepted := make([]time.Duration, 0, total)
	var shed []time.Duration
	var errs, unlaunched int
	var wg sync.WaitGroup
	start := time.Now()
	for i := range plan {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case slots <- struct{}{}:
		default:
			unlaunched++
			continue
		}
		wg.Add(1)
		go func(r req) {
			defer func() { <-slots }()
			defer wg.Done()
			t0 := time.Now()
			var err error
			if r.read {
				_, err = c.Recommend(ctx, r.src, k)
			} else {
				_, err = c.ApplyEvents(ctx, []treesvd.Event{{U: r.u, V: r.v, Type: treesvd.Insert}})
			}
			lat := time.Since(t0)
			var ove *treesvd.OverloadError
			mu.Lock()
			switch {
			case err == nil:
				accepted = append(accepted, lat)
			case errors.As(err, &ove):
				shed = append(shed, lat)
			default:
				errs++
			}
			mu.Unlock()
		}(plan[i])
	}
	wg.Wait()

	sort.Slice(accepted, func(a, b int) bool { return accepted[a] < accepted[b] })
	sort.Slice(shed, func(a, b int) bool { return shed[a] < shed[b] })
	acceptedP99 := quantileUs(accepted, 0.99)
	return overloadResult{
		OfferedRPS:       rps,
		KneeRPS:          knee,
		Requests:         total,
		Accepted:         len(accepted),
		Shed:             len(shed),
		Unlaunched:       unlaunched,
		Errors:           errs,
		ShedRate:         float64(len(shed)) / float64(max(total, 1)),
		AcceptedP50us:    quantileUs(accepted, 0.50),
		AcceptedP99us:    acceptedP99,
		ShedP99us:        quantileUs(shed, 0.99),
		UnloadedP99us:    unloadedP99us,
		AcceptedWithin3x: acceptedP99 <= 3*unloadedP99us+27_000,
	}
}

// quantileUs is the nearest-rank quantile of a sorted sample, in µs.
func quantileUs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Microsecond)
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q in -rates", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// buildSynthetic mirrors cmd/serve's generator: a random graph with a
// uniformly sampled subset and 2x node-capacity headroom for the writes.
func buildSynthetic(nodes, edges, subsetSize, dim int, seed int64) (*treesvd.Embedder, error) {
	rng := rand.New(rand.NewSource(seed))
	g := treesvd.NewGraphN(nodes)
	for v := int32(0); int(v) < nodes; v++ {
		for {
			u := int32(rng.Intn(nodes))
			if u != v && g.InsertEdge(v, u) {
				break
			}
		}
	}
	for g.NumEdges() < edges {
		g.InsertEdge(int32(rng.Intn(nodes)), int32(rng.Intn(nodes)))
	}
	subset := make([]int32, 0, subsetSize)
	for _, v := range rng.Perm(nodes) {
		if len(subset) == subsetSize {
			break
		}
		subset = append(subset, int32(v))
	}
	cfg := treesvd.Defaults()
	cfg.Dim = dim
	cfg.RMax = 1e-3
	cfg.Seed = seed
	cfg.MaxNodes = 2 * nodes
	return treesvd.New(g, subset, cfg)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
