package treesvd

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/tree-svd/treesvd/internal/wal"
)

// Repro: corrupt a WAL record whose seq is <= the newest checkpoint seq.
// Lenient recovery drops it (harmless — the checkpoint covers it), but the
// new writer resumes at ckSeq+1, leaving a sequence gap vs the surviving
// WAL tail. Batches acknowledged after that open are then dropped by the
// NEXT open.
func TestGapAfterLenientDropBelowCheckpoint(t *testing.T) {
	fx := newDurableFixture(t)
	dir := t.TempDir()
	acked, _, _, err := fx.runWorkload(wal.OS, dir)
	if err != nil {
		t.Fatalf("workload: %v (acked %d)", err, acked)
	}

	// Find the oldest remaining WAL segment and flip a byte in its first
	// record's CRC (offset segHdr=8 + 12).
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	if len(segs) == 0 {
		t.Skip("no wal segments remain")
	}
	p := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8+16 {
		t.Skipf("segment too short: %d", len(data))
	}
	data[8+12] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := Open(dir, fx.cfg)
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	t.Logf("first open recovery: %+v", d.Recovery())

	// Apply two more acknowledged batches (SyncBatch default).
	extra := fx.batches[:2]
	for i, b := range extra {
		if _, err := d.ApplyEvents(bgt, b); err != nil {
			t.Fatalf("extra batch %d: %v", i, err)
		}
	}
	want := copyMat(d.Embedding())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, fx.cfg)
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	t.Logf("second open recovery: %+v", d2.Recovery())
	if d2.Recovery().DroppedBatches > 0 {
		t.Fatalf("second open dropped %d acknowledged batches (reason: %s)",
			d2.Recovery().DroppedBatches, d2.Recovery().DropReason)
	}
	requireMatEqual(t, d2.Embedding(), want, "state after reopen")
}
