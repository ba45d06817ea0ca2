package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/tree-svd/treesvd/internal/graph"
)

// TestEventsRoundTrip drives random event batches through frame + payload
// encode/decode and requires bit equality.
func TestEventsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		events := make([]graph.Event, n)
		for i := range events {
			events[i] = graph.Event{
				U:    int32(rng.Intn(1 << 20)),
				V:    int32(rng.Intn(1 << 20)),
				Type: graph.EventType(rng.Intn(2)),
			}
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, EncodeEvents(events)); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(&buf, MaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEvents(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(events) {
			t.Fatalf("decoded %d events, want %d", len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
			}
		}
	}
}

// TestEventEncodingGolden pins the 9-byte event form a WAL record holds
// (graph.AppendEvents) and the event frame payload built on it: the tag,
// the little-endian count, then the same bytes.
func TestEventEncodingGolden(t *testing.T) {
	batch := []graph.Event{{U: 1, V: 2, Type: graph.Insert}, {U: 70000, V: math.MaxInt32, Type: graph.Delete}}
	const body = "010000000200000000" + "70110100ffffff7f01"
	if got := hex.EncodeToString(graph.AppendEvents(nil, batch)); got != body {
		t.Fatalf("graph.AppendEvents = %s, want %s", got, body)
	}
	if got, want := hex.EncodeToString(EncodeEvents(batch)), "45"+"02000000"+body; got != want {
		t.Fatalf("EncodeEvents = %s, want %s", got, want)
	}
}

// TestStreamOfFrames checks that concatenated frames decode in order and
// the stream ends with a clean io.EOF.
func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	batches := [][]graph.Event{
		{{U: 1, V: 2, Type: graph.Insert}},
		{{U: 3, V: 4, Type: graph.Delete}, {U: 5, V: 6, Type: graph.Insert}},
		{},
	}
	for _, b := range batches {
		if err := WriteFrame(&buf, EncodeEvents(b)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range batches {
		payload, err := ReadFrame(&buf, MaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeEvents(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d events, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf, MaxFrame); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestRecsAndMatrixRoundTrip round-trips the read-path payloads,
// including NaN/Inf scores (must survive bit-exactly).
func TestRecsAndMatrixRoundTrip(t *testing.T) {
	recs := []Rec{{Node: 7, Score: 3.25}, {Node: 9, Score: math.Inf(1)}, {Node: 2, Score: -0.0}}
	v, src, got, err := DecodeRecs(EncodeRecs(42, 3, recs))
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 || src != 3 || len(got) != 3 {
		t.Fatalf("decoded version=%d source=%d n=%d", v, src, len(got))
	}
	for i := range recs {
		if math.Float64bits(got[i].Score) != math.Float64bits(recs[i].Score) || got[i].Node != recs[i].Node {
			t.Fatalf("rec %d diverged: %+v != %+v", i, got[i], recs[i])
		}
	}

	rows := [][]float64{{1, 2, 3}, {4, 5, math.NaN()}}
	mv, mnodes, mrows, err := DecodeMatrix(EncodeMatrix(9, []int32{17, -1}, rows))
	if err != nil {
		t.Fatal(err)
	}
	if mv != 9 || len(mrows) != 2 || len(mrows[0]) != 3 {
		t.Fatalf("matrix decoded to version=%d shape=%dx%d", mv, len(mrows), len(mrows[0]))
	}
	if !slices.Equal(mnodes, []int32{17, -1}) {
		t.Fatalf("matrix decoded node ids %v, want [17 -1]", mnodes)
	}
	if math.Float64bits(mrows[1][2]) != math.Float64bits(math.NaN()) {
		t.Fatal("NaN did not survive the round trip")
	}

	res := ApplyResult{Batches: 3, Events: 17, Rebuilt: 2, Version: 11}
	back, err := DecodeApplyResult(EncodeApplyResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if back != res {
		t.Fatalf("apply result %+v != %+v", back, res)
	}
}

// corruptionEvents is the batch TestCorruptionDetection frames and
// damages; FuzzReadFrame starts from the same frames.
var corruptionEvents = []graph.Event{{U: 1, V: 2, Type: graph.Insert}, {U: 3, V: 4, Type: graph.Delete}}

func frame(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestCorruptionDetection flips bits, truncates, and lies about lengths;
// every case must surface as ErrCorruptFrame or io.ErrUnexpectedEOF,
// never a silent mis-decode.
func TestCorruptionDetection(t *testing.T) {
	events := corruptionEvents
	clean := frame(t, EncodeEvents(events))

	// Bit flip in every byte position, one at a time.
	for i := range clean {
		bad := append([]byte(nil), clean...)
		bad[i] ^= 0x40
		payload, err := ReadFrame(bytes.NewReader(bad), MaxFrame)
		if err == nil {
			// A flip inside the length prefix can still frame-verify only if
			// the CRC happens to match — it cannot, so decode must fail.
			if _, derr := DecodeEvents(payload); derr == nil {
				t.Fatalf("bit flip at %d went undetected", i)
			}
		}
	}

	// Truncation at every boundary short of the footer.
	for cut := 1; cut < len(clean); cut++ {
		_, err := ReadFrame(bytes.NewReader(clean[:cut]), MaxFrame)
		if err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}

	// A hostile length prefix must be bounded, not allocated.
	var hostile bytes.Buffer
	hostile.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&hostile, MaxFrame); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("hostile length prefix: %v, want ErrCorruptFrame", err)
	}

	// Malformed payloads: wrong tag, short body, trailing garbage,
	// count lying about the body size.
	if _, err := DecodeEvents([]byte{'X', 0, 0, 0, 0}); err == nil {
		t.Fatal("wrong tag accepted")
	}
	if _, err := DecodeEvents([]byte{'E', 10, 0, 0, 0}); err == nil {
		t.Fatal("oversized count accepted")
	}
	if _, err := DecodeEvents(append(EncodeEvents(events), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	unknownType := EncodeEvents(events)
	unknownType[len(unknownType)-1] = 2
	if _, err := DecodeEvents(unknownType); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("event of unknown type: %v, want ErrCorruptFrame", err)
	}
	if _, _, _, err := DecodeRecs(EncodeEvents(events)); err == nil {
		t.Fatal("cross-tag decode accepted")
	}
	// Rows without columns: 17 bytes claiming 2³¹−1 rows, which would
	// allocate 48 GB of row headers.
	zeroWidth := EncodeMatrix(1, nil, nil)
	binary.LittleEndian.PutUint32(zeroWidth[9:], math.MaxInt32)
	if _, _, _, err := DecodeMatrix(zeroWidth); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("rows without columns: %v, want ErrCorruptFrame", err)
	}
	// One node id short of the row count, and one over it.
	m := EncodeMatrix(1, []int32{4, 5}, [][]float64{{1}, {2}})
	short := slices.Concat(m[:17], m[21:])
	long := slices.Concat(m[:21], []byte{6, 0, 0, 0}, m[21:])
	for name, p := range map[string][]byte{"short": short, "long": long} {
		if _, _, _, err := DecodeMatrix(p); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("node ids %s of the row count: %v, want ErrCorruptFrame", name, err)
		}
	}
}

// TestReadFrameAllocatesWhatArrives sends a length prefix just under
// MaxFrame and then a few bytes: ReadFrame must report the torn frame
// without allocating the gigabyte the prefix claims.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	hostile := []byte{0xf0, 0xff, 0xff, 0x3f, 1, 2, 3}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(hostile), MaxFrame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn hostile frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("ReadFrame allocated %d bytes for a 7-byte stream", got)
	}
	// A frame that arrives in full still reads back whole.
	big := make([]byte, 3<<20+5)
	for i := range big {
		big[i] = byte(i)
	}
	got, err := ReadFrame(bytes.NewReader(frame(t, big)), MaxFrame)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("3 MiB frame: %v, equal %t", err, bytes.Equal(got, big))
	}
}

// TestReadFrameRefusesOverLimit: a length prefix past the caller's limit
// is refused as corrupt before a byte of its payload is read, and one at
// the limit reads whole.
func TestReadFrameRefusesOverLimit(t *testing.T) {
	f := frame(t, EncodeEvents([]graph.Event{{U: 1, V: 2}, {U: 3, V: 4}}))
	r := bytes.NewReader(f)
	if _, err := ReadFrame(r, EventsLen(1)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("two-event frame under a one-event limit: %v, want ErrCorruptFrame", err)
	}
	if r.Len() != len(f)-4 {
		t.Fatalf("ReadFrame read %d bytes past the length prefix of a refused frame", len(f)-4-r.Len())
	}
	if _, err := ReadFrame(bytes.NewReader(f), EventsLen(2)); err != nil {
		t.Fatalf("two-event frame under a two-event limit: %v", err)
	}
}

// FuzzReadFrame reads a frame and runs every decoder on its payload. No
// input may panic, and a payload that decodes must re-encode to bytes
// that decode to the same value. An input whose frame does not verify
// (most mutations break the checksum) is also decoded as a bare payload,
// so mutations reach the decoders.
func FuzzReadFrame(f *testing.F) {
	clean := frame(f, EncodeEvents(corruptionEvents))
	f.Add(clean)
	for _, i := range []int{0, 4, 9, len(clean) - 5} {
		bad := append([]byte(nil), clean...)
		bad[i] ^= 0x40
		f.Add(bad)
	}
	f.Add(clean[:len(clean)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(frame(f, EncodeEvents(nil)))
	f.Add(frame(f, EncodeRecs(42, 3, []Rec{{Node: 7, Score: 3.25}, {Node: 9, Score: math.Inf(1)}})))
	f.Add(frame(f, EncodeMatrix(9, []int32{17, -1}, [][]float64{{1, 2, 3}, {4, 5, math.NaN()}})))
	f.Add(frame(f, EncodeMatrix(3, []int32{0, 1, 2}, [][]float64{{}, {}, {}})))
	f.Add(frame(f, EncodeApplyResult(ApplyResult{Batches: 3, Events: 17, Rebuilt: 2, Version: 11})))
	f.Add([]byte{'E', 10, 0, 0, 0})
	f.Add(append(EncodeEvents(corruptionEvents), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), MaxFrame)
		if err == nil {
			if n := len(payload) + prefixLen + FooterLen; !bytes.Equal(frame(t, payload), data[:n]) {
				t.Fatal("a frame that verifies does not re-frame to its own bytes")
			}
		} else {
			payload = data
		}
		checkDecodersRoundTrip(t, payload)
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkDecodersRoundTrip runs every decoder on payload and re-encodes
// whatever decodes.
func checkDecodersRoundTrip(t *testing.T, payload []byte) {
	if ev, err := DecodeEvents(payload); err == nil {
		if back, err := DecodeEvents(EncodeEvents(ev)); err != nil || !slices.Equal(back, ev) {
			t.Fatalf("events re-encode: %v", err)
		}
	}
	if v, src, recs, err := DecodeRecs(payload); err == nil {
		v2, src2, back, err := DecodeRecs(EncodeRecs(v, src, recs))
		if err != nil || v2 != v || src2 != src || !slices.EqualFunc(back, recs, func(a, b Rec) bool {
			return a.Node == b.Node && sameBits(a.Score, b.Score)
		}) {
			t.Fatalf("recommendations re-encode: %v", err)
		}
	}
	if v, nodes, rows, err := DecodeMatrix(payload); err == nil {
		v2, backNodes, back, err := DecodeMatrix(EncodeMatrix(v, nodes, rows))
		if err != nil || v2 != v || !slices.Equal(backNodes, nodes) || !slices.EqualFunc(back, rows, func(a, b []float64) bool {
			return slices.EqualFunc(a, b, sameBits)
		}) {
			t.Fatalf("matrix re-encode: %v", err)
		}
	}
	if res, err := DecodeApplyResult(payload); err == nil {
		if back, err := DecodeApplyResult(EncodeApplyResult(res)); err != nil || back != res {
			t.Fatalf("apply result re-encode: %v", err)
		}
	}
}
