// Package column is the save format's encoding of bulk data: fixed-width
// little-endian columns, each behind an explicit 8-byte element count,
// appended to a caller's buffer, and a Reader that takes them back. The
// graph, the PPR states, the proximity matrix and the tree each lay out
// their own parts in these columns; the save lays the parts out in one
// presized buffer, each part a length-prefixed section.
//
// A Reader refuses a count its remaining bytes cannot hold before it
// allocates, so a corrupt length is an error, never an allocation larger
// than the input. Its first error sticks: every later read returns the
// zero value, and Done reports that error, or bytes left over.
package column

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// CountLen is the size of a column's or section's count prefix.
const CountLen = 8

var le = binary.LittleEndian

// Int32sLen, Int64sLen and Float64sLen are the encoded sizes of an
// n-value column; SectionLen is that of an n-byte section.
func Int32sLen(n int) int   { return CountLen + 4*n }
func Int64sLen(n int) int   { return CountLen + 8*n }
func Float64sLen(n int) int { return CountLen + 8*n }
func SectionLen(n int) int  { return CountLen + n }

// AppendUint32, AppendUint64 and AppendFloat64 append one fixed-width
// value.
func AppendUint32(b []byte, v uint32) []byte   { return le.AppendUint32(b, v) }
func AppendUint64(b []byte, v uint64) []byte   { return le.AppendUint64(b, v) }
func AppendFloat64(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }

// Reserve appends the count n and n·width bytes for the caller to fill,
// returning the extended buffer and those bytes: the form of a column
// whose values are gathered while it is written. The bytes alias the
// buffer, so a caller that reserves several columns before filling them
// grows the buffer for all of them first.
func Reserve(b []byte, n, width int) (out, col []byte) {
	b = le.AppendUint64(slices.Grow(b, CountLen+n*width), uint64(n))
	at := len(b)
	b = b[:at+n*width]
	return b, b[at:]
}

// AppendInt32s appends s as a column.
func AppendInt32s(b []byte, s []int32) []byte {
	b, col := Reserve(b, len(s), 4)
	for i, v := range s {
		le.PutUint32(col[4*i:], uint32(v))
	}
	return b
}

// AppendInt64s appends s as a column.
func AppendInt64s(b []byte, s []int64) []byte {
	b, col := Reserve(b, len(s), 8)
	for i, v := range s {
		le.PutUint64(col[8*i:], uint64(v))
	}
	return b
}

// AppendFloat64s appends s as a column of IEEE-754 bits.
func AppendFloat64s(b []byte, s []float64) []byte {
	b, col := Reserve(b, len(s), 8)
	for i, v := range s {
		le.PutUint64(col[8*i:], math.Float64bits(v))
	}
	return b
}

// PutInt32 and PutFloat64 fill value i of a column Reserve returned.
func PutInt32(col []byte, i int, v int32)     { le.PutUint32(col[4*i:], uint32(v)) }
func PutFloat64(col []byte, i int, v float64) { le.PutUint64(col[8*i:], math.Float64bits(v)) }

// PutCount writes n as a count or a section's length at b[at:] and
// returns the index after it: the form of a buffer whose layout is known
// before its sections are written.
func PutCount(b []byte, at, n int) int {
	le.PutUint64(b[at:], uint64(n))
	return at + CountLen
}

// Reader reads columns back from b.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b; it keeps b and never modifies it.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// fail records the first error and empties the reader.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// next returns the next n bytes, or nil after recording an error.
func (r *Reader) next(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.fail(fmt.Errorf("column: %s of %d bytes runs past the end, %d bytes left", what, n, len(r.b)))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Byte, Int32, Uint64 and Float64 read one fixed-width value.
func (r *Reader) Byte() byte {
	if b := r.next(1, "value"); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) Int32() int32 {
	if b := r.next(4, "value"); b != nil {
		return int32(le.Uint32(b))
	}
	return 0
}

func (r *Reader) Uint64() uint64 {
	if b := r.next(8, "value"); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Count reads a count of items that take at least width bytes each and
// returns it, or 0 after an error when the remaining bytes cannot hold
// that many: the check that comes before any allocation the count sizes.
func (r *Reader) Count(width int) int {
	n := r.Uint64()
	if r.err == nil && n > uint64(len(r.b)/width) {
		r.fail(fmt.Errorf("column: count %d of %d-byte items runs past the end, %d bytes left", n, width, len(r.b)))
		return 0
	}
	return int(n)
}

// column returns the bytes of the next column of width-byte values and
// its length.
func (r *Reader) column(width int) ([]byte, int) {
	n := r.Count(width)
	return r.next(n*width, "column"), n
}

// Int32s reads a column; an empty one reads as nil.
func (r *Reader) Int32s() []int32 {
	col, n := r.column(4)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(le.Uint32(col[4*i:]))
	}
	return out
}

// Int64s reads a column; an empty one reads as nil.
func (r *Reader) Int64s() []int64 {
	col, n := r.column(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(le.Uint64(col[8*i:]))
	}
	return out
}

// Float64s reads a column; an empty one reads as nil.
func (r *Reader) Float64s() []float64 {
	col, n := r.column(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(le.Uint64(col[8*i:]))
	}
	return out
}

// Section reads a section — a byte count, then that many bytes — without
// a copy.
func (r *Reader) Section() []byte {
	col, _ := r.column(1)
	return col
}

// Err returns the first error.
func (r *Reader) Err() error { return r.err }

// Done returns the first error, or one naming the bytes left unread: a
// part ends where its last column does.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("column: %d trailing bytes", len(r.b))
	}
	return r.err
}
