package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
)

// segmentBytes appends payloads through a Writer starting at seq first
// and returns the one segment file it produced.
func segmentBytes(f *testing.F, first uint64, payloads ...[]byte) []byte {
	dir := f.TempDir()
	w, err := NewWriter(OS, dir, first, &Metrics{})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.Append(p).Wait(); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(first)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// recoverBytes writes seg as the log's only segment (first seq 1) and
// runs Recover over it.
func recoverBytes(t *testing.T, seg []byte, strict bool) (string, *RecoverResult, error) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(OS, dir, 0, strict)
	return dir, res, err
}

// coveredSeq is the first seq of the clean segment FuzzRecover puts after
// the fuzzed one, far past any seq the fuzzed one can chain to.
const coveredSeq = 1 << 40

// FuzzRecover feeds arbitrary bytes to Recover as a one-segment log. It
// must never panic; strict mode fails only with a *CorruptError. Every
// record lenient mode keeps must re-encode to the bytes it came from,
// with seqs 1, 2, …; the repaired log must recover again cleanly in
// strict mode; and an event payload either fails graph.DecodeEvents or
// round-trips through graph.AppendEvents. Followed by a clean segment and
// recovered from that segment's first seq, the fuzzed segment is never
// read: strict mode returns the clean segment's records and leaves the
// fuzzed bytes as they were.
func FuzzRecover(f *testing.F) {
	var payloads, events [][]byte
	for i := 0; i < 8; i++ {
		payloads = append(payloads, payloadFor(i))
		events = append(events, graph.AppendEvents(nil, []graph.Event{
			{U: int32(i), V: int32(i + 1), Type: graph.Insert},
			{U: int32(2 * i), V: 3, Type: graph.Delete},
		}))
	}
	clean := segmentBytes(f, 1, payloads...)
	f.Add(clean)
	f.Add(segmentBytes(f, 1, events...))
	after := segmentBytes(f, coveredSeq, payloads[:2]...)
	f.Add(clean[:segHdrLen])
	for _, cut := range []int{1, 5, recHdrLen - 1, recHdrLen + 3} {
		f.Add(clean[:len(clean)-cut])
	}
	flipped := bytes.Clone(clean)
	flipped[segHdrLen+2*26+recHdrLen+2] ^= 0x10
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir, res, err := recoverBytes(t, seg, false)
		if err != nil {
			t.Fatalf("lenient Recover: %v", err)
		}
		off := segHdrLen
		for i, r := range res.Records {
			if r.Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
			enc := encodeRecord(r.Seq, r.Payload)
			if off+len(enc) > len(seg) || !bytes.Equal(seg[off:off+len(enc)], enc) {
				t.Fatalf("record %d does not re-encode to its bytes at offset %d", i, off)
			}
			off += len(enc)
			if ev, err := graph.DecodeEvents(r.Payload); err == nil && !bytes.Equal(graph.AppendEvents(nil, ev), r.Payload) {
				t.Fatalf("record %d: events decode but do not re-encode", i)
			}
		}
		again, err := Recover(OS, dir, 0, true)
		if err != nil || again.TornTail || again.Dropped != 0 || len(again.Records) != len(res.Records) {
			t.Fatalf("repaired log recovers as %+v, %v; want %d clean records", again, err, len(res.Records))
		}

		covered := t.TempDir()
		if err := os.WriteFile(filepath.Join(covered, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(covered, segName(coveredSeq)), after, 0o644); err != nil {
			t.Fatal(err)
		}
		tail, err := Recover(OS, covered, coveredSeq, true)
		if err != nil || len(tail.Records) != 2 || tail.Records[0].Seq != coveredSeq {
			t.Fatalf("Recover from the clean segment: %+v, %v; want its 2 records", tail, err)
		}
		if back, err := os.ReadFile(filepath.Join(covered, segName(1))); err != nil || !bytes.Equal(back, seg) {
			t.Fatalf("Recover changed a segment it was to skip (%v)", err)
		}

		_, strict, err := recoverBytes(t, seg, true)
		if err != nil {
			if ce := (*CorruptError)(nil); !errors.As(err, &ce) {
				t.Fatalf("strict Recover: %v (%T), want a *CorruptError", err, err)
			}
			return
		}
		if res.Dropped != 0 || len(strict.Records) != len(res.Records) {
			t.Fatalf("strict kept %d records, lenient %d with %d dropped", len(strict.Records), len(res.Records), res.Dropped)
		}
	})
}

// FuzzReadCheckpoint feeds arbitrary bytes to ReadCheckpoint as the
// checkpoint of seq 7. It must never panic, must fail only with a
// *CorruptError, and whatever it accepts WriteCheckpoint must write back
// as the same bytes.
func FuzzReadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	if err := WriteCheckpoint(OS, dir, 7, bytes.Repeat([]byte("state"), 100)); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(filepath.Join(dir, ckptName(7)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-100])
	for _, off := range []int{1, 9, 20, ckptHdrLen + 50} {
		flipped := bytes.Clone(clean)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ckptName(7)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		seq, payload, err := ReadCheckpoint(OS, dir, ckptName(7))
		if err != nil {
			if ce := (*CorruptError)(nil); !errors.As(err, &ce) {
				t.Fatalf("ReadCheckpoint: %v (%T), want a *CorruptError", err, err)
			}
			return
		}
		out := t.TempDir()
		if err := WriteCheckpoint(OS, out, seq, payload); err != nil {
			t.Fatal(err)
		}
		back, err := os.ReadFile(filepath.Join(out, ckptName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted checkpoint (seq %d, %d payload bytes) re-writes to different bytes", seq, len(payload))
		}
	})
}
