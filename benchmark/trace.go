package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// Span names; the part before the dot is the package (layer) the span's
// time belongs to.
const (
	spanApply        = "treesvd.apply"
	spanRecommend    = "treesvd.recommend"
	spanDurableApply = "durable.apply"
	spanClientRead   = "client.recommend"
	spanClientWrite  = "client.apply"
	spanGraphApply   = "graph.apply"
	spanRepair       = "ppr.repair"
	spanUpdate       = "core.update"
	spanBlock        = "core.block"
	spanToCSR        = "sparse.tocsr"
	spanRight        = "core.right_embedding"
)

// span is one timed interval at a layer boundary. Req is the batch
// sequence number (writes) or the read index (reads) the span belongs to;
// Parent is the ID of the span that caused it, 0 for a root. Twin marks a
// span measured on the twin state and laid out inside its parent: its
// duration is as measured, its position is not.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Twin    bool   `json:"twin,omitempty"`
}

func (s span) dur() float64 { return float64(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the library's trace hook fires on worker goroutines.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// applyBySeq and freshBySeq find the span a twin child belongs under:
	// the facade's apply of batch seq, and the first read of the snapshot
	// that batch published.
	applyBySeq map[int64]int
	freshBySeq map[int64]int
	// openBlocks are the block spans of the batch in flight; they get their
	// parent when the batch's own span is recorded at its end.
	openBlocks []int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), applyBySeq: map[int64]int{}, freshBySeq: map[int64]int{}}
}

// add records one span and returns its ID.
func (r *recorder) add(name string, parent int, req int64, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(span{Name: name, Parent: parent, Req: req,
		StartNs: int64(start.Sub(r.t0)), EndNs: int64(end.Sub(r.t0))})
}

func (r *recorder) addLocked(s span) int {
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// hook adapts the library's trace events to spans: a batch bracket becomes
// a treesvd.apply span, a block event a core.block span under it.
func (r *recorder) hook() treesvd.TraceHook {
	return func(ev treesvd.TraceEvent) {
		end := time.Now()
		r.mu.Lock()
		defer r.mu.Unlock()
		s := span{Req: int64(ev.Seq), StartNs: int64(end.Add(-ev.Dur).Sub(r.t0)), EndNs: int64(end.Sub(r.t0))}
		switch ev.Kind {
		case treesvd.TraceBatchEnd:
			s.Name = spanApply
			id := r.addLocked(s)
			r.applyBySeq[s.Req] = id
			for _, b := range r.openBlocks {
				r.spans[b-1].Parent, r.spans[b-1].Req = id, s.Req
			}
			r.openBlocks = r.openBlocks[:0]
		case treesvd.TraceBlockRecompute, treesvd.TraceBlockUpdate:
			// Updates are serialized, so a block event belongs to the one
			// batch in flight.
			s.Name = spanBlock
			r.openBlocks = append(r.openBlocks, r.addLocked(s))
		}
	}
}

// byName returns the durations of every span called name.
func (r *recorder) byName(name string) samples {
	var out samples
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the
// part of its interval that its child spans cover.
func (r *recorder) selfTimes(name string) samples {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out samples
	for _, p := range r.spans {
		if p.Name != name {
			continue
		}
		out = append(out, p.dur()-covered(p, children[p.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(p span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	total, edge := int64(0), p.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, edge), min(k.EndNs, p.EndNs)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return float64(total)
}

// twin is a second copy of the pipeline state, built from the same inputs
// as the facade embedder and advanced, right after every batch the facade
// applies, by calling the layers' own public functions in the facade's
// order. Running beside the facade keeps both under the same machine
// conditions. Its spans say where a treesvd.apply goes; its final embedding
// must equal the facade's, which proves the replay is the same computation
// and catches drift when the facade is refactored.
type twin struct {
	g    *graph.Graph
	prox *ppr.Proximity
	tree *core.Tree
	rec  *recorder
	seq  int64 // batches applied, matching the facade's batch sequence

	submitted, applied int
	csr                *sparse.CSR // frozen by the last apply
}

// newTwin mirrors treesvd.New for an unsharded embedder.
func newTwin(g *graph.Graph, subset []int32, cfg treesvd.Config, rec *recorder) (*twin, error) {
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("twin replays the unsharded pipeline; Config.Shards is %d", cfg.Shards)
	}
	params := ppr.Params{Alpha: cfg.Alpha, RMax: cfg.RMax, Workers: cfg.Workers,
		Met: &ppr.Metrics{}, Accel: cfg.PushAccel == treesvd.PushSOR}
	tcfg := core.Config{
		Rank: cfg.Dim, Branch: cfg.Branch, Levels: cfg.Levels, Delta: cfg.Delta,
		Seed: cfg.Seed, Workers: cfg.Workers,
		SVDUpdate: cfg.SVDUpdate, UpdateMaxRel: cfg.UpdateMaxRel, UpdateTailFrac: cfg.UpdateTailFrac,
	}
	sub, err := ppr.NewSubset(g, subset, params)
	if err != nil {
		return nil, err
	}
	prox := ppr.NewProximity(sub, max(cfg.MaxNodes, g.NumNodes()), tcfg.Blocks())
	tree, err := core.NewTree(prox.M, tcfg)
	if err != nil {
		return nil, err
	}
	if err := tree.Build(context.Background()); err != nil {
		return nil, err
	}
	return &twin{g: g, prox: prox, tree: tree, rec: rec}, nil
}

// apply advances the twin by one batch and records one child span per
// layer under the facade's apply span of the same batch.
func (t *twin) apply(ctx context.Context, events []treesvd.Event) error {
	t.seq++
	lay := t.layout(t.rec.applyBySeq)

	start := time.Now()
	applied := ppr.ApplyAll(t.g, events)
	lay.child(spanGraphApply, start)
	t.submitted += len(events)
	t.applied += len(applied)

	start = time.Now()
	if err := t.prox.RepairApplied(ctx, applied); err != nil {
		return err
	}
	lay.child(spanRepair, start)

	start = time.Now()
	if _, err := t.tree.Update(ctx); err != nil {
		return err
	}
	lay.child(spanUpdate, start)

	start = time.Now()
	t.csr = t.prox.M.ToCSR()
	lay.child(spanToCSR, start)
	return nil
}

// right computes what the first reader of the current snapshot pays, as a
// child of that reader's span when there was one.
func (t *twin) right() {
	lay := t.layout(t.rec.freshBySeq)
	start := time.Now()
	core.RightEmbeddingOf(t.tree.Root(), t.csr)
	lay.child(spanRight, start)
}

// layout places twin spans one after another from their parent's start.
type layout struct {
	rec    *recorder
	parent int
	req    int64
	cursor int64
}

// layout finds the twin's current batch in one of the recorder's indexes.
// The recorder is locked: a reader goroutine may be adding spans.
func (t *twin) layout(index map[int64]int) *layout {
	t.rec.mu.Lock()
	defer t.rec.mu.Unlock()
	l := &layout{rec: t.rec, parent: index[t.seq], req: t.seq}
	if l.parent != 0 {
		l.cursor = t.rec.spans[l.parent-1].StartNs
	}
	return l
}

func (l *layout) child(name string, start time.Time) {
	if l.parent == 0 {
		return // the facade ran this batch untraced: keep up silently
	}
	d := int64(time.Since(start))
	l.rec.mu.Lock()
	l.rec.addLocked(span{Name: name, Parent: l.parent, Req: l.req,
		StartNs: l.cursor, EndNs: l.cursor + d, Twin: true})
	l.rec.mu.Unlock()
	l.cursor += d
}
