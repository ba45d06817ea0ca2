package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustAppend(t *testing.T, w *Writer, payload []byte) uint64 {
	t.Helper()
	seq, err := w.Append(payload).Wait()
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func payloadFor(i int) []byte {
	return bytes.Repeat([]byte{byte(i)}, 10+i%7)
}

// writeLog appends n records starting at seq 1, marks a checkpoint after
// every every-th record (never when every is 0), so a segment starts at
// seqs 1, every+1, 2·every+1, …, and closes the writer.
func writeLog(t *testing.T, dir string, n, every int) {
	t.Helper()
	w, err := NewWriter(OS, dir, 1, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := mustAppend(t, w, payloadFor(i)); got != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, got)
		}
		if every > 0 && (i+1)%every == 0 {
			w.MarkCheckpoint(uint64(i + 1))
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
		writeLog(t, dir, 25, 0)
		res, err := Recover(OS, dir, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		checkRecords(t, res.Records, 25)
		if res.TornTail || res.Dropped != 0 {
			t.Fatalf("clean log recovered with TornTail=%v Dropped=%d", res.TornTail, res.Dropped)
		}
	})
}

// TestSegmentRotation: the record after a marked checkpoint starts a
// segment, and a mark on a segment that holds no record starts none (its
// name would collide with the current one).
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(OS, dir, 1, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	w.MarkCheckpoint(0) // the empty first segment already starts at 1
	for i := 0; i < 7; i++ {
		mustAppend(t, w, payloadFor(i))
		if i == 2 || i == 4 {
			w.MarkCheckpoint(uint64(i + 1))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, err := listSegments(OS, dir); err != nil || fmt.Sprint(segs) != "[1 4 6]" {
		t.Fatalf("segments %v (%v), want [1 4 6]", segs, err)
	}
	if got := w.met.Rotations.Load(); got != 2 {
		t.Fatalf("%d rotations, want 2", got)
	}
	res, err := Recover(OS, dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, 7)
}

// TestRecoverSkipsCoveredSegments: Recover from a seq never reads a
// segment that the next one starting at or before that seq follows, so
// damage there neither drops a later record nor changes the file; the
// last segment is scanned whatever from is.
func TestRecoverSkipsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 9, 3) // segments 1, 4, 7
	first := filepath.Join(dir, segName(1))
	flipByteAt(t, first, segHdrLen+recHdrLen+2)
	damaged, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		from      uint64
		firstSeq  uint64
		recovered int
	}{{4, 4, 6}, {5, 4, 6}, {7, 7, 3}, {20, 7, 3}} {
		res, err := Recover(OS, dir, tc.from, true)
		if err != nil {
			t.Fatalf("from %d: %v", tc.from, err)
		}
		if len(res.Records) != tc.recovered || res.Records[0].Seq != tc.firstSeq || res.Dropped != 0 {
			t.Fatalf("from %d: %d records from seq %d, %d dropped; want %d from %d, none dropped",
				tc.from, len(res.Records), res.Records[0].Seq, res.Dropped, tc.recovered, tc.firstSeq)
		}
	}
	if after, err := os.ReadFile(first); err != nil || !bytes.Equal(after, damaged) {
		t.Fatalf("a skipped segment changed (%v)", err)
	}
	if _, err := Recover(OS, dir, 3, true); err == nil {
		t.Fatal("strict Recover from 3 accepted the damaged first segment")
	}
}

func TestWriterResumesAfterRecover(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 5, 0)
	res, err := Recover(OS, dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	next := res.Records[len(res.Records)-1].Seq + 1
	w, err := NewWriter(OS, dir, next, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustAppend(t, w, payloadFor(5)); got != 6 {
		t.Fatalf("resumed append assigned seq %d, want 6", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = Recover(OS, dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, 6)
}

// TestRecoverRemovesEmptyLastSegment: a writer closed before its first
// append leaves a last segment with a valid header and no records, and
// Recover removes it as it does a segment a torn header left empty.
func TestRecoverRemovesEmptyLastSegment(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 2, 0)
	w, err := NewWriter(OS, dir, 3, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(OS, dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, 2)
	if res.TornTail || res.Dropped != 0 {
		t.Fatalf("an empty segment reported as damage: %+v", res)
	}
	segs, err := listSegments(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(segs) != "[1]" {
		t.Fatalf("segments %v after Recover, want [1]", segs)
	}
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
			writeLog(t, dir, 8, 0)
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
			res, err := Recover(OS, dir, 0, true)
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
			res, err = Recover(OS, dir, 0, true)
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
	writeLog(t, dir, 8, 0)
	// Flip inside the payload of the third record (header 8 + two 26-byte
	// records + a few bytes in).
	flipByteAt(t, lastSegment(t, dir), segHdrLen+2*26+recHdrLen+2)
	_, err := Recover(OS, dir, 0, true)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("strict recovery returned %v, want *CorruptError", err)
	}
}

func TestBitFlipLenientTruncates(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 8, 0)
	flipByteAt(t, lastSegment(t, dir), segHdrLen+2*26+recHdrLen+2)
	res, err := Recover(OS, dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, 2)
	// The faulted record and the five whole ones after it are cut.
	if res.Dropped != 6 || res.DropReason == "" {
		t.Fatalf("lenient recovery dropped %d (%q), want 6 records reported", res.Dropped, res.DropReason)
	}
	// The surviving prefix must be a valid log a writer can resume.
	w, err := NewWriter(OS, dir, 3, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, payloadFor(2))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = Recover(OS, dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, 3)
}

// TestDamagedMiddleSegment damages the second segment, in its first
// record or in its header: lenient recovery keeps the first segment and
// counts every record it cuts.
func TestDamagedMiddleSegment(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int64
	}{{"record", segHdrLen + recHdrLen + 1}, {"header", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeLog(t, dir, 20, 3)
			segs, err := listSegments(OS, dir)
			if err != nil || len(segs) < 3 {
				t.Fatalf("need ≥3 segments, got %d (%v)", len(segs), err)
			}
			flipByteAt(t, filepath.Join(dir, segName(segs[1])), tc.off)
			if _, err := Recover(OS, dir, 0, true); err == nil {
				t.Fatal("strict recovery accepted a damaged middle segment")
			}
			res, err := Recover(OS, dir, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			checkRecords(t, res.Records, int(segs[1]-1))
			if want := 20 - int(segs[1]-1); res.Dropped != want {
				t.Fatalf("lenient recovery dropped %d records, want %d", res.Dropped, want)
			}
			// Later segments must be gone: the prefix is the whole log now.
			if left, err := listSegments(OS, dir); err != nil || len(left) != 1 {
				t.Fatalf("segments %v (%v) after truncating at segment 2, want the first alone", left, err)
			}
		})
	}
}

func TestPruneSegments(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 20, 3)
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
	res, err := Recover(OS, dir, 0, true)
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
	w, err := NewWriter(OS, dir, 1, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, []byte("ok"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The closed writer must refuse everything rather than write through a
	// dead handle.
	if _, err := w.Append([]byte("late")).Wait(); err == nil {
		t.Fatal("closed writer accepted an append")
	}
}

// hookFS is OS with hooks on Create and on every created file's Sync, for
// the writer's ordering and failure tests. A hook returning an error fails
// the Sync without syncing.
type hookFS struct {
	FS
	onCreate func(name string)
	onSync   func(name string) error
}

func (h *hookFS) Create(name string) (File, error) {
	if h.onCreate != nil {
		h.onCreate(name)
	}
	f, err := h.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return hookFile{File: f, fs: h, name: name}, nil
}

type hookFile struct {
	File
	fs   *hookFS
	name string
}

func (f hookFile) Sync() error {
	if f.fs.onSync != nil {
		if err := f.fs.onSync(f.name); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// TestNextSeqAdvancesOnlyAfterSync: while a record's fsync blocks, NextSeq
// waits for it instead of reporting the record's seq as used, and the
// record's seq is handed out only once the fsync returns.
func TestNextSeqAdvancesOnlyAfterSync(t *testing.T) {
	fsys := &hookFS{FS: OS}
	w, err := NewWriter(fsys, t.TempDir(), 1, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	fsys.onSync = func(string) error {
		close(entered)
		<-release
		return nil
	}
	rec := w.Append([]byte("first"))
	<-entered
	next := make(chan uint64)
	go func() { next <- w.NextSeq() }()
	select {
	case got := <-next:
		t.Fatalf("NextSeq returned %d while the record's fsync was blocked", got)
	case <-time.After(50 * time.Millisecond):
	}
	fsys.onSync = nil // read by the writer only after release
	close(release)
	if got := <-next; got != 2 {
		t.Fatalf("NextSeq after the fsync = %d, want 2", got)
	}
	if seq, err := rec.Wait(); seq != 1 || err != nil {
		t.Fatalf("Wait = %d, %v; want 1, nil", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedSyncPoisonsWriter: a failed record fsync assigns no seq, and
// every later append of the writer returns that same error. Close cuts
// the failed record out and reports the cut, which succeeds here.
func TestFailedSyncPoisonsWriter(t *testing.T) {
	fsys := &hookFS{FS: OS}
	dir := t.TempDir()
	w, err := NewWriter(fsys, dir, 1, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, []byte("ok"))
	injected := errors.New("injected fsync failure")
	fsys.onSync = func(string) error { return injected }
	if _, err := w.Append([]byte("lost")).Wait(); !errors.Is(err, injected) {
		t.Fatalf("Append with a failing fsync: %v, want the injected error", err)
	}
	if got := w.NextSeq(); got != 2 {
		t.Fatalf("NextSeq after the failed fsync = %d, want 2 (unchanged)", got)
	}
	fsys.onSync = nil
	if _, err := w.Append([]byte("later")).Wait(); !errors.Is(err, injected) {
		t.Fatalf("Append on the poisoned writer: %v, want the sealing error", err)
	}
	if got := w.NextSeq(); got != 2 {
		t.Fatalf("NextSeq on the poisoned writer = %d, want 2", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close on the poisoned writer: %v, want its cut to succeed", err)
	}
	res, err := Recover(OS, dir, 0, true)
	if err != nil || len(res.Records) != 1 {
		t.Fatalf("Recover after the failed fsync: %d records (%v), want the one acknowledged", len(res.Records), err)
	}
}

// TestRotationSealsBeforeNewName: the old segment's last record is fsynced
// before the next segment's file is created, so the new name never
// appears while the old segment's records could still be lost; neither
// the rotation nor Close adds an fsync of a segment, which holds nothing
// unsynced.
func TestRotationSealsBeforeNewName(t *testing.T) {
	var ops []string
	fsys := &hookFS{FS: OS,
		onCreate: func(name string) { ops = append(ops, "create "+filepath.Base(name)) },
		onSync: func(name string) error {
			ops = append(ops, "sync "+filepath.Base(name))
			return nil
		},
	}
	dir := t.TempDir()
	w, err := NewWriter(fsys, dir, 1, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, payloadFor(0))
	w.MarkCheckpoint(1)
	mustAppend(t, w, payloadFor(1)) // rotates to the segment of seq 2
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	old, next := segName(1), segName(2)
	want := []string{
		"create " + old, "sync " + old, // NewWriter: header
		"sync " + old,                    // record 1
		"create " + next, "sync " + next, // then the new name appears
		"sync " + next, // record 2; Close fsyncs nothing
	}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Fatalf("file operations\n got %v\nwant %v", ops, want)
	}
	res, err := Recover(OS, dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res.Records, 2)
}
