// Package wire is the compact binary codec of the serving layer: a
// length-prefixed frame format shared by the HTTP server and the client
// SDK. It is the one format of event ingest, and the opt-in format of
// bulk embedding reads, where JSON's ~3-4x size and float formatting cost
// actually show up in tail latency.
//
// A frame on the wire is
//
//	[4B uint32 LE payload length] [payload] [4B "TSV2"] [4B uint32 LE CRC32C(payload)]
//
// The integrity footer (Footer, SplitFooter) is also the one a save ends
// in, so torn or bit-flipped frames and saves are rejected
// deterministically rather than mis-decoded. The payload's first byte
// tags its type (events, recommendations, matrix, apply-result); all
// integers are little-endian, scores and embedding coordinates are
// IEEE-754 float64 bits.
//
// Streams compose by concatenation: an ingest request body is any number
// of event frames back to back, each applied as one batch.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/tree-svd/treesvd/internal/graph"
)

// ContentType is the MIME type negotiating the binary codec over HTTP;
// requests and responses carrying frames use it in Content-Type/Accept.
const ContentType = "application/x-treesvd-frame"

// FooterLen is the size of the integrity footer: the magic "TSV2" and a
// little-endian CRC32C of the payload it seals.
const (
	FooterLen   = 8
	footerMagic = "TSV2"
	prefixLen   = 4
)

// MaxFrame bounds a single frame's payload so a corrupt or hostile
// length prefix cannot make the reader allocate unbounded memory. 1 GiB
// covers a full right embedding for ~16M nodes at d=8.
const MaxFrame = 1 << 30

// Payload type tags, the first byte of every payload.
const (
	tagEvents      = 'E'
	tagRecs        = 'R'
	tagMatrix      = 'M'
	tagApplyResult = 'A'
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptFrame reports a frame whose footer failed to verify: wrong
// magic, checksum mismatch, or an impossible length. Callers separate it
// from io.ErrUnexpectedEOF (a torn stream) with errors.Is.
var ErrCorruptFrame = errors.New("wire: corrupt frame")

// Rec is one ranked recommendation on the wire; the facade's
// Recommendation type has the same shape and converts field by field.
type Rec struct {
	Node  int32
	Score float64
}

// ApplyResult reports one applied ingest stream: how many batches and
// events were accepted, how many level-1 blocks were re-factored, and
// the snapshot version published by the last batch.
type ApplyResult struct {
	Batches, Events, Rebuilt int
	Version                  uint64
}

// Footer returns the integrity footer that seals payload.
func Footer(payload []byte) []byte {
	f := make([]byte, FooterLen)
	copy(f, footerMagic)
	binary.LittleEndian.PutUint32(f[4:], crc32.Checksum(payload, castagnoli))
	return f
}

// SplitFooter verifies the integrity footer at the end of data and
// returns the payload it seals.
func SplitFooter(data []byte) ([]byte, error) {
	if len(data) < FooterLen {
		return nil, fmt.Errorf("%d bytes cannot hold the %d-byte integrity footer", len(data), FooterLen)
	}
	payload, footer := data[:len(data)-FooterLen], data[len(data)-FooterLen:]
	if string(footer[:4]) != footerMagic {
		return nil, fmt.Errorf("bad footer magic %q", footer[:4])
	}
	want := binary.LittleEndian.Uint32(footer[4:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("checksum mismatch: computed %08x, footer %08x", got, want)
	}
	return payload, nil
}

// WriteFrame writes one frame (length prefix, payload, integrity footer)
// to w.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: %d-byte payload exceeds the %d-byte frame bound", len(payload), MaxFrame)
	}
	var prefix [prefixLen]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(payload)))
	if _, err := w.Write(prefix[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err := w.Write(Footer(payload))
	return err
}

// ReadFrame reads and verifies one frame from r, returning its payload.
// A clean end of stream returns io.EOF; a stream that ends mid-frame
// returns io.ErrUnexpectedEOF; a failed footer returns ErrCorruptFrame,
// and so does a length prefix past limit (capped at MaxFrame), before a
// byte of the payload is read.
func ReadFrame(r io.Reader, limit int) ([]byte, error) {
	var prefix [prefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err // io.EOF: clean end of stream
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if limit = min(limit, MaxFrame); int64(n) > int64(limit) {
		return nil, fmt.Errorf("%w: %d-byte length prefix exceeds the %d-byte bound", ErrCorruptFrame, n, limit)
	}
	// The buffer grows as bytes arrive instead of trusting the prefix: a
	// four-byte stream claiming a gigabyte must not cost one.
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)+FooterLen))
	if err != nil {
		return nil, err
	}
	if len(buf) < int(n)+FooterLen {
		return nil, io.ErrUnexpectedEOF
	}
	payload, err := SplitFooter(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
	}
	return payload, nil
}

// reader consumes a payload with bounds checking; fail is sticky.
type reader struct {
	b    []byte
	fail bool
}

func (r *reader) take(n int) []byte {
	if r.fail || len(r.b) < n {
		r.fail = true
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// done reports whether the payload was consumed exactly and completely.
func (r *reader) done() bool { return !r.fail && len(r.b) == 0 }

// corrupt builds the uniform malformed-payload error.
func corrupt(what string) error { return fmt.Errorf("%w: malformed %s payload", ErrCorruptFrame, what) }

// EventsLen is the payload length of an n-event batch (EncodeEvents), the
// frame bound of a reader that accepts at most n events a batch.
func EventsLen(n int) int { return 5 + graph.EventLen*n }

// EncodeEvents encodes one event batch: tag, count, then the batch in
// graph.AppendEvents' 9-byte form.
func EncodeEvents(events []graph.Event) []byte {
	b := make([]byte, 0, EventsLen(len(events)))
	b = append(b, tagEvents)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(events)))
	return graph.AppendEvents(b, events)
}

// DecodeEvents decodes an event-batch payload written by EncodeEvents.
func DecodeEvents(payload []byte) ([]graph.Event, error) {
	r := &reader{b: payload}
	if r.u8() != tagEvents {
		return nil, corrupt("events")
	}
	n := uint64(r.u32())
	if r.fail || n*graph.EventLen != uint64(len(r.b)) {
		return nil, corrupt("events")
	}
	events, err := graph.DecodeEvents(r.b)
	if err != nil {
		return nil, corrupt("events")
	}
	return events, nil
}

// EncodeRecs encodes a ranked recommendation list for one source at one
// snapshot version.
func EncodeRecs(version uint64, source int32, recs []Rec) []byte {
	b := make([]byte, 0, 17+12*len(recs))
	b = append(b, tagRecs)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(source))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(recs)))
	for _, rc := range recs {
		b = binary.LittleEndian.AppendUint32(b, uint32(rc.Node))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rc.Score))
	}
	return b
}

// DecodeRecs decodes a payload written by EncodeRecs.
func DecodeRecs(payload []byte) (version uint64, source int32, recs []Rec, err error) {
	r := &reader{b: payload}
	if r.u8() != tagRecs {
		return 0, 0, nil, corrupt("recommendations")
	}
	version = r.u64()
	source = int32(r.u32())
	n := int(r.u32())
	if r.fail || n > len(r.b)/12 {
		return 0, 0, nil, corrupt("recommendations")
	}
	recs = make([]Rec, n)
	for i := range recs {
		recs[i].Node = int32(r.u32())
		recs[i].Score = math.Float64frombits(r.u64())
	}
	if !r.done() {
		return 0, 0, nil, corrupt("recommendations")
	}
	return version, source, recs, nil
}

// EncodeMatrix encodes a row-major matrix (an embedding) at one snapshot
// version: the row count, the column count, the graph node each row
// embeds, then the rows. nodes and rows must have the same length.
func EncodeMatrix(version uint64, nodes []int32, rows [][]float64) []byte {
	if len(nodes) != len(rows) {
		panic(fmt.Sprintf("wire: EncodeMatrix got %d node ids for %d rows", len(nodes), len(rows)))
	}
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	b := make([]byte, 0, 17+(4+8*cols)*len(rows))
	b = append(b, tagMatrix)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	b = binary.LittleEndian.AppendUint32(b, uint32(cols))
	for _, v := range nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for _, row := range rows {
		for _, x := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// DecodeMatrix decodes a payload written by EncodeMatrix. A payload that
// does not hold exactly one node id and one row for each counted row is
// refused, and the count is checked against the payload's length before
// anything is allocated.
func DecodeMatrix(payload []byte) (version uint64, nodes []int32, rows [][]float64, err error) {
	r := &reader{b: payload}
	if r.u8() != tagMatrix {
		return 0, nil, nil, corrupt("matrix")
	}
	version = r.u64()
	nr := int(r.u32())
	nc := int(r.u32())
	if r.fail || nr > len(r.b)/(4+8*nc) {
		return 0, nil, nil, corrupt("matrix")
	}
	nodes = make([]int32, nr)
	for i := range nodes {
		nodes[i] = int32(r.u32())
	}
	rows = make([][]float64, nr)
	flat := make([]float64, nr*nc)
	for i := range rows {
		rows[i] = flat[i*nc : (i+1)*nc : (i+1)*nc]
		for j := 0; j < nc; j++ {
			rows[i][j] = math.Float64frombits(r.u64())
		}
	}
	if !r.done() {
		return 0, nil, nil, corrupt("matrix")
	}
	return version, nodes, rows, nil
}

// EncodeApplyResult encodes an ingest summary.
func EncodeApplyResult(res ApplyResult) []byte {
	b := make([]byte, 0, 21)
	b = append(b, tagApplyResult)
	b = binary.LittleEndian.AppendUint32(b, uint32(res.Batches))
	b = binary.LittleEndian.AppendUint32(b, uint32(res.Events))
	b = binary.LittleEndian.AppendUint32(b, uint32(res.Rebuilt))
	b = binary.LittleEndian.AppendUint64(b, res.Version)
	return b
}

// DecodeApplyResult decodes a payload written by EncodeApplyResult.
func DecodeApplyResult(payload []byte) (ApplyResult, error) {
	r := &reader{b: payload}
	if r.u8() != tagApplyResult {
		return ApplyResult{}, corrupt("apply-result")
	}
	res := ApplyResult{
		Batches: int(r.u32()),
		Events:  int(r.u32()),
		Rebuilt: int(r.u32()),
		Version: r.u64(),
	}
	if !r.done() {
		return ApplyResult{}, corrupt("apply-result")
	}
	return res, nil
}
