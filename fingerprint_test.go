package treesvd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/dataset"
)

var updateFingerprint = flag.Bool("update", false, "rewrite testdata/fingerprint.golden")

const fingerprintGolden = "testdata/fingerprint.golden"

// TestProgramFingerprint pins what the program computes on the system
// benchmark's shape (8 000 nodes growing toward 9 000, degree 5,
// |S| = 128, d = 16, r_max = 1e-3): a churn stream (48-event batches) and
// a trickle stream (4-event batches), 200 batches each, through a durable
// store that checkpoints halfway. It records the live embedder after the
// last batch (Create builds it with New; the store adds only the log),
// then closes the store and records it again once Open has replayed the
// half after the checkpoint. Each record is SHA-256 of the save, of the
// embedding's bits and of a fixed set of Recommend answers, and the exact
// work counters.
//
// testdata/fingerprint.golden is the set of lines that Workers 1 and 2
// produce between them. Every line, the saves' included (a save stores
// no worker count), must come out the same at both, or the set gains a
// line and the test fails.
// A change that moves a line on purpose regenerates the golden with
// -update and names each moved line, and why it moved, in CHANGES.md.
func TestProgramFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden holds amd64 bits; Go fuses multiply-add on arm64, so the arithmetic outside the product kernels rounds differently there")
	}
	var union []string
	produced := map[string]bool{}
	passes := map[int][]string{}
	for _, workers := range []int{1, 2} {
		passes[workers] = programFingerprint(t, workers)
		for _, l := range passes[workers] {
			if !produced[l] {
				produced[l] = true
				union = append(union, l)
			}
		}
	}
	if *updateFingerprint {
		if err := os.WriteFile(fingerprintGolden, []byte(strings.Join(union, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	inGolden := map[string]bool{}
	for _, l := range want {
		inGolden[l] = true
	}
	for _, workers := range []int{1, 2} {
		for _, l := range passes[workers] {
			if !inGolden[l] {
				t.Errorf("workers=%d produced %q, which is not in %s", workers, l, fingerprintGolden)
			}
		}
	}
	for _, l := range want {
		if !produced[l] {
			t.Errorf("no worker count produced %q", l)
		}
	}
	if t.Failed() {
		t.Log("the program's fingerprint moved; regenerate it with -update only for a change that means to move it")
	}
}

// programFingerprint runs both streams at the given worker count and
// returns the golden's lines, "key value" each.
func programFingerprint(t *testing.T, workers int) []string {
	const nodes, maxNodes, batches = 8000, 9000, 200
	subset := make([]int32, 128)
	for i, v := range rand.New(rand.NewSource(1)).Perm(nodes)[:len(subset)] {
		subset[i] = int32(v)
	}
	slices.Sort(subset)
	cfg := Defaults()
	cfg.Dim, cfg.RMax, cfg.MaxNodes, cfg.Workers, cfg.Seed = 16, 1e-3, maxNodes, workers, 1

	var out bytes.Buffer
	for _, stream := range []struct {
		name  string
		batch int
	}{{"churn", 48}, {"trickle", 4}} {
		g, evs := dataset.GenerateChurn(dataset.ChurnProfile{
			Nodes: nodes, MaxNodes: maxNodes, Degree: 5,
			Batches: batches, BatchSize: stream.batch,
			DeleteFrac: 0.2, GrowFrac: 0.02, BigBatch: -1,
			Protect: subset, Seed: 1,
		})
		dir := t.TempDir()
		d := mustTB(Create(dir, g, subset, DurableConfig{Config: cfg, CheckpointEvery: -1}))
		for i, ev := range evs {
			if i == len(evs)/2 {
				must0tb(d.Checkpoint())
			}
			mustTB(d.ApplyEvents(bgt, ev))
		}
		fmt.Fprintf(&out, "%s.wal_bytes %d\n", stream.name, d.Metrics().WAL.AppendedBytes)
		writeFingerprint(t, &out, stream.name+".live", d)
		must0tb(d.Close())

		d = mustTB(Open(dir, DurableConfig{Config: Config{Workers: workers}, CheckpointEvery: -1}))
		fmt.Fprintf(&out, "%s.replayed_batches %d\n", stream.name, d.Recovery().ReplayedBatches)
		writeFingerprint(t, &out, stream.name+".reopened", d)
		must0tb(d.Close())
	}
	return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
}

// writeFingerprint appends emb's lines under key: the hashes of its save,
// embedding and Recommend answers, then its work counters. A reopened
// store's counters cover its replay only.
func writeFingerprint(t *testing.T, out *bytes.Buffer, key string, emb *Embedder) {
	t.Helper()
	var save bytes.Buffer
	must0tb(emb.Save(&save))
	fmt.Fprintf(out, "%s.save sha256:%x\n", key, sha256.Sum256(save.Bytes()))

	snap := emb.Snapshot()
	h := sha256.New()
	for _, row := range snap.Embedding() {
		for _, x := range row {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	fmt.Fprintf(out, "%s.embedding sha256:%x\n", key, h.Sum(nil))

	h.Reset()
	subset := snap.Subset()
	for _, s := range subset[:min(16, len(subset))] {
		for _, r := range mustTB(snap.Recommend(s, 10)) {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(r.Node)))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.Score)))
		}
	}
	fmt.Fprintf(out, "%s.recommend sha256:%x\n", key, h.Sum(nil))

	m := emb.Metrics()
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"pushes", m.Pushes}, {"adjusts", m.Adjusts}, {"states_repaired", m.StatesRepaired},
		{"source_rebuilds", m.SourceRebuilds}, {"blocks_rebuilt", m.BlocksRebuilt},
		{"blocks_skipped", m.BlocksSkipped}, {"upper_refines", m.UpperProjections},
		{"upper_exact_merges", m.UpperMerges}, {"snapshot_nnz", uint64(snap.m.NNZ())},
	} {
		fmt.Fprintf(out, "%s.%s %d\n", key, c.name, c.v)
	}
}
