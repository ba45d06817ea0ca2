package main

import (
	"math/rand"
	"sort"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/dataset"
)

// size fixes the graph and how often the untimed and one-shot phases run.
// full is what every reported number uses; tiny exists for the -short smoke
// test.
type size struct {
	nodes, maxNodes, degree int
	subset                  int
	warmBatches, warmReads  int
	// An in-process timed loop stops for a read probe after every
	// loop/probeRounds batches, about probeRounds times in all: 1 +
	// probeWarmReads Recommend calls on the snapshot the last batch published.
	probeRounds, probeWarmReads int
	// sides is how many times the timed loop stops for the one-shot
	// operations, evenly spread: each stop sets up one more system from
	// scratch and recovers the live one's state once (Open of a copy of the
	// durable store) or loads times (LoadFile of a SaveFile).
	sides, loads int
	// ladderReads and ladderBatches size the traced serving ladder.
	ladderReads, ladderBatches int
}

var (
	full = size{
		nodes: 8000, maxNodes: 9000, degree: 5, subset: 128,
		warmBatches: 50, warmReads: 200,
		probeRounds: 200, probeWarmReads: 49,
		sides: 12, loads: 2,
		ladderReads: 2000, ladderBatches: 50,
	}
	tiny = size{
		nodes: 300, maxNodes: 340, degree: 4, subset: 24,
		warmBatches: 5, warmReads: 10,
		probeRounds: 4, probeWarmReads: 8,
		sides: 2, loads: 1,
		ladderReads: 20, ladderBatches: 4,
	}
)

const (
	recommendK = 10
	// readSources is the length of the pre-drawn Zipf source sequence; a
	// reader cycles through it.
	readSources = 1 << 14
)

// inputs is everything a run feeds the library: the library only ever sees
// these generated values, never the seed's provenance.
type inputs struct {
	graph   *treesvd.Graph // pristine; every set-up clones it
	subset  []int32
	batches [][]treesvd.Event
	// loopBatches is how many batches after the warm-up the timed loop may
	// consume; the rest feed the ladder.
	loopBatches int
	// The loop stops for a read probe when the loop batches so far are a
	// multiple of probeEvery, and for the one-shot operations when all the
	// batches so far, the warm-up's too, are one short of a multiple of
	// sideEvery. The durable store checkpoints every sideEvery/2 batches, so
	// each of those stops finds it with the longest WAL tail it ever has.
	probeEvery, sideEvery int
	reads                 []int32 // Zipf(s=1.1) over the subset
	cfg                   treesvd.Config
}

// checkpointEvery is the durable store's background checkpoint period.
func (in *inputs) checkpointEvery() int { return in.sideEvery / 2 }

// stopsAfter reports whether the timed loop stops for the one-shot
// operations once n batches in all have been applied.
func (in *inputs) stopsAfter(n int) bool { return n%in.sideEvery == in.sideEvery-1 }

// config is the library default with only the five sizing knobs set, so a
// later change that flips a default is measured without editing this file.
func config(seed int64, sz size) treesvd.Config {
	c := treesvd.Defaults()
	c.Dim, c.RMax, c.MaxNodes, c.Workers, c.Seed = 16, 1e-3, sz.maxNodes, 2, seed
	return c
}

// generate derives a run's inputs from the seed alone. A traced in-process
// run plans half the loop, because it replays every batch a second time
// through the layers' own functions; the paced serve-mixed loop leaves
// room for that as it is.
func generate(w workload, seed int64, seconds int, traced bool, sz size) *inputs {
	rng := rand.New(rand.NewSource(seed))
	subset := make([]int32, sz.subset)
	for i, v := range rng.Perm(sz.nodes)[:sz.subset] {
		subset[i] = int32(v)
	}
	sort.Slice(subset, func(i, j int) bool { return subset[i] < subset[j] })

	loop := w.batchesPerSecond * seconds
	if traced && !w.serve {
		loop /= 2
	}
	g, batches := dataset.GenerateChurn(dataset.ChurnProfile{
		Nodes: sz.nodes, MaxNodes: sz.maxNodes, Degree: sz.degree,
		Batches: sz.warmBatches + loop + sz.ladderBatches, BatchSize: w.batchSize,
		DeleteFrac: 0.2, GrowFrac: 0.02, BigBatch: -1,
		Protect: subset, Seed: seed,
	})

	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(subset)-1))
	reads := make([]int32, readSources)
	for i := range reads {
		reads[i] = subset[zipf.Uint64()]
	}
	return &inputs{
		graph: g, subset: subset, batches: batches, loopBatches: loop,
		probeEvery: max(1, loop/sz.probeRounds),
		sideEvery:  max(2, (sz.warmBatches+loop)/sz.sides&^1), // even: two checkpoint periods
		reads:      reads, cfg: config(seed, sz),
	}
}
