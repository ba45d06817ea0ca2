package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustAppend(t *testing.T, w *Writer, payload []byte) uint64 {
	t.Helper()
	seq, err := w.Append(payload)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func payloadFor(i int) []byte {
	return bytes.Repeat([]byte{byte(i)}, 10+i%7)
}

// writeLog appends n records starting at seq 1 and closes the writer.
func writeLog(t *testing.T, dir string, n int, opt Options) {
	t.Helper()
	w, err := NewWriter(OS, dir, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := mustAppend(t, w, payloadFor(i)); got != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, got)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func checkRecords(t *testing.T, recs []Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if !bytes.Equal(r.Payload, payloadFor(i)) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	// "batch" is the one fsync behaviour the writer has: every append is
	// synced before it returns.
	t.Run("batch", func(t *testing.T) {
		dir := t.TempDir()
		writeLog(t, dir, 25, Options{})
		res, err := Recover(OS, dir, true)
		if err != nil {
			t.Fatal(err)
		}
		checkRecords(t, res.Records, 25)
		if res.TornTail || res.Dropped != 0 {
			t.Fatalf("clean log recovered with TornTail=%v Dropped=%d", res.TornTail, res.Dropped)
		}
	})
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// ~26 bytes per record; rotate every ~3 records.
	writeLog(t, dir, 20, Options{SegmentSize: 90})
	segs, err := listSegments(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	res, err := Recover(OS, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, 20)
}

func TestWriterResumesAfterRecover(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 5, Options{})
	res, err := Recover(OS, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	next := res.Records[len(res.Records)-1].Seq + 1
	w, err := NewWriter(OS, dir, next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustAppend(t, w, payloadFor(5)); got != 6 {
		t.Fatalf("resumed append assigned seq %d, want 6", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = Recover(OS, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, 6)
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(OS, dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	return filepath.Join(dir, segName(segs[len(segs)-1]))
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int64{1, 5, recHdrLen - 1, recHdrLen + 3} {
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			dir := t.TempDir()
			writeLog(t, dir, 8, Options{})
			name := lastSegment(t, dir)
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(name, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}
			// A torn tail is a crash artifact, not corruption: even strict
			// mode repairs it silently.
			res, err := Recover(OS, dir, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.TornTail {
				t.Fatal("torn tail not reported")
			}
			if res.Dropped != 0 {
				t.Fatalf("torn tail counted %d dropped records", res.Dropped)
			}
			checkRecords(t, res.Records, 7)
			// The log must now be clean: recover again, nothing torn.
			res, err = Recover(OS, dir, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.TornTail {
				t.Fatal("tail still torn after repair")
			}
			checkRecords(t, res.Records, 7)
		})
	}
}

// flipByteAt flips one bit of the file at off.
func flipByteAt(t *testing.T, name string, off int64) {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0x10
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBitFlipStrictFails(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 8, Options{})
	// Flip inside the payload of the third record (header 8 + two 26-byte
	// records + a few bytes in).
	flipByteAt(t, lastSegment(t, dir), segHdrLen+2*26+recHdrLen+2)
	_, err := Recover(OS, dir, true)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("strict recovery returned %v, want *CorruptError", err)
	}
}

func TestBitFlipLenientTruncates(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 8, Options{})
	flipByteAt(t, lastSegment(t, dir), segHdrLen+2*26+recHdrLen+2)
	res, err := Recover(OS, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, 2)
	if res.Dropped == 0 || res.DropReason == "" {
		t.Fatalf("lenient recovery dropped %d (%q), want a reported loss", res.Dropped, res.DropReason)
	}
	// The surviving prefix must be a valid log a writer can resume.
	w, err := NewWriter(OS, dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, payloadFor(2))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = Recover(OS, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, 3)
}

func TestDamagedMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 20, Options{SegmentSize: 90})
	segs, err := listSegments(OS, dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d (%v)", len(segs), err)
	}
	mid := filepath.Join(dir, segName(segs[1]))
	flipByteAt(t, mid, segHdrLen+recHdrLen+1)
	if _, err := Recover(OS, dir, true); err == nil {
		t.Fatal("strict recovery accepted a damaged middle segment")
	}
	res, err := Recover(OS, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, int(segs[1]-1))
	if res.Dropped == 0 {
		t.Fatal("lenient recovery reported no loss")
	}
	// Later segments must be gone: the prefix is the whole log now.
	left, err := listSegments(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) >= len(segs) {
		t.Fatalf("still %d segments after truncating at segment 2 of %d", len(left), len(segs))
	}
}

func TestPruneSegments(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 20, Options{SegmentSize: 90})
	segs, err := listSegments(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	upTo := segs[2] - 1 // everything the first two segments hold
	if err := PruneSegments(OS, dir, upTo); err != nil {
		t.Fatal(err)
	}
	left, err := listSegments(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != len(segs)-2 || left[0] != segs[2] {
		t.Fatalf("prune(upTo=%d) left %v, want suffix from %d", upTo, left, segs[2])
	}
	// The pruned log must still recover: records seq > upTo all present.
	res, err := Recover(OS, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].Seq != segs[2] || res.Records[len(res.Records)-1].Seq != 20 {
		t.Fatalf("pruned log spans %d..%d, want %d..20", res.Records[0].Seq, res.Records[len(res.Records)-1].Seq, segs[2])
	}
	// Pruning everything must keep the newest segment: a writer may own it.
	if err := PruneSegments(OS, dir, 20); err != nil {
		t.Fatal(err)
	}
	left, err = listSegments(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("full prune left %d segments, want the newest only", len(left))
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("state"), 100)
	if err := WriteCheckpoint(OS, dir, 42, payload); err != nil {
		t.Fatal(err)
	}
	cks, err := ListCheckpoints(OS, dir)
	if err != nil || len(cks) != 1 || cks[0].Seq != 42 {
		t.Fatalf("ListCheckpoints = %v, %v", cks, err)
	}
	seq, got, err := ReadCheckpoint(OS, dir, cks[0].Name)
	if err != nil || seq != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("ReadCheckpoint = seq %d, %d bytes, %v", seq, len(got), err)
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("state"), 100)
	if err := WriteCheckpoint(OS, dir, 7, payload); err != nil {
		t.Fatal(err)
	}
	name := ckptName(7)
	for _, off := range []int64{1, 9, 20, ckptHdrLen + 50} {
		t.Run(fmt.Sprint(off), func(t *testing.T) {
			path := filepath.Join(dir, name)
			flipByteAt(t, path, off)
			defer flipByteAt(t, path, off) // restore for the next case
			_, _, err := ReadCheckpoint(OS, dir, name)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("flip at %d: got %v, want *CorruptError", off, err)
			}
		})
	}
}

func TestCheckpointTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(OS, dir, 7, bytes.Repeat([]byte("x"), 500)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ckptName(7))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-100); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadCheckpoint(OS, dir, ckptName(7))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError", err)
	}
}

func TestPruneCheckpointsKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{3, 9, 12, 40} {
		if err := WriteCheckpoint(OS, dir, seq, []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneCheckpoints(OS, dir, 2); err != nil {
		t.Fatal(err)
	}
	cks, err := ListCheckpoints(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 || cks[0].Seq != 12 || cks[1].Seq != 40 {
		t.Fatalf("prune kept %v, want seqs 12 and 40", cks)
	}
}

func TestRemoveTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(OS, dir, 1, []byte("s")); err != nil {
		t.Fatal(err)
	}
	stranded := filepath.Join(dir, ckptName(9)+tmpSuffix)
	if err := os.WriteFile(stranded, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A stranded tmp must neither be listed nor survive cleanup.
	cks, err := ListCheckpoints(OS, dir)
	if err != nil || len(cks) != 1 {
		t.Fatalf("tmp file leaked into ListCheckpoints: %v, %v", cks, err)
	}
	if err := RemoveTempFiles(OS, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stranded); !os.IsNotExist(err) {
		t.Fatalf("stranded tmp still present (%v)", err)
	}
}

func TestHasState(t *testing.T) {
	dir := t.TempDir()
	if has, err := HasState(OS, dir); err != nil || has {
		t.Fatalf("empty dir: HasState = %v, %v", has, err)
	}
	if err := WriteCheckpoint(OS, dir, 0, []byte("s")); err != nil {
		t.Fatal(err)
	}
	if has, err := HasState(OS, dir); err != nil || !has {
		t.Fatalf("dir with checkpoint: HasState = %v, %v", has, err)
	}
}

func TestWriterPoisonsOnError(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(OS, dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, []byte("ok"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The closed writer must refuse everything rather than write through a
	// dead handle.
	if _, err := w.Append([]byte("late")); err == nil {
		t.Fatal("closed writer accepted an append")
	}
}
