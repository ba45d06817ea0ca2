package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// EventType distinguishes edge insertions from deletions.
type EventType uint8

const (
	// Insert adds an edge.
	Insert EventType = iota
	// Delete removes an edge.
	Delete
)

// Event is one edge event ⟨u, v, type⟩ of Definition 2.1.
type Event struct {
	U, V int32
	Type EventType
}

// EventLen is the size of one event in the binary form of a WAL record
// and a wire event frame: u and v as little-endian uint32, then the type.
const EventLen = 9

// AppendEvents appends events to b in the binary event form (see
// EventLen) and returns the extended slice.
func AppendEvents(b []byte, events []Event) []byte {
	b = slices.Grow(b, EventLen*len(events))
	for _, ev := range events {
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.V))
		b = append(b, byte(ev.Type))
	}
	return b
}

// DecodeEvents parses a batch written by AppendEvents. A length that is
// not a whole number of events, or a type byte other than Insert or
// Delete, is an error.
func DecodeEvents(b []byte) ([]Event, error) {
	if len(b)%EventLen != 0 {
		return nil, fmt.Errorf("graph: event payload length %d is not a multiple of %d", len(b), EventLen)
	}
	events := make([]Event, len(b)/EventLen)
	for i := range events {
		ev := b[EventLen*i : EventLen*(i+1)]
		typ := EventType(ev[8])
		if typ != Insert && typ != Delete {
			return nil, fmt.Errorf("graph: event %d has unknown type %d", i, typ)
		}
		events[i] = Event{
			U:    int32(binary.LittleEndian.Uint32(ev)),
			V:    int32(binary.LittleEndian.Uint32(ev[4:])),
			Type: typ,
		}
	}
	return events, nil
}

// Apply executes the event on the graph. It returns false for no-op events
// (inserting an existing edge, deleting a missing one).
func (g *Graph) Apply(e Event) bool {
	if e.Type == Insert {
		return g.InsertEdge(e.U, e.V)
	}
	return g.DeleteEdge(e.U, e.V)
}

// ApplyAll executes a batch of events and returns how many took effect.
func (g *Graph) ApplyAll(events []Event) int {
	n := 0
	for _, e := range events {
		if g.Apply(e) {
			n++
		}
	}
	return n
}

// Stream is a dynamic graph per Definition 2.1: an ordered event log cut
// into snapshots. Snapshot t (1-based; snapshot 0 is the empty graph)
// consists of the first Ends[t-1] events. NumNodes is the id upper bound.
type Stream struct {
	Events   []Event
	Ends     []int // cumulative event counts, one per snapshot; non-decreasing
	NumNodes int
}

// NumSnapshots returns τ, the number of non-empty snapshots.
func (s *Stream) NumSnapshots() int { return len(s.Ends) }

// SnapshotEvents returns the events between snapshot t-1 and t (Δ^t),
// where t is 1-based.
func (s *Stream) SnapshotEvents(t int) []Event {
	if t < 1 || t > len(s.Ends) {
		panic(fmt.Sprintf("graph: snapshot %d out of 1..%d", t, len(s.Ends)))
	}
	lo := 0
	if t > 1 {
		lo = s.Ends[t-2]
	}
	return s.Events[lo:s.Ends[t-1]]
}

// BuildSnapshot materializes the graph at snapshot t (1-based).
func (s *Stream) BuildSnapshot(t int) *Graph {
	g := New(s.NumNodes)
	if t < 1 {
		return g
	}
	g.ApplyAll(s.Events[:s.Ends[t-1]])
	return g
}

// Validate checks structural invariants of the stream.
func (s *Stream) Validate() error {
	prev := 0
	for i, e := range s.Ends {
		if e < prev {
			return fmt.Errorf("graph: Ends[%d]=%d decreases below %d", i, e, prev)
		}
		if e > len(s.Events) {
			return fmt.Errorf("graph: Ends[%d]=%d exceeds %d events", i, e, len(s.Events))
		}
		prev = e
	}
	for i, ev := range s.Events {
		if ev.U < 0 || ev.V < 0 || int(ev.U) >= s.NumNodes || int(ev.V) >= s.NumNodes {
			return fmt.Errorf("graph: event %d touches node out of range [0,%d)", i, s.NumNodes)
		}
	}
	return nil
}

// WriteEvents writes the stream in a line format: a header
// "# nodes N snapshots K" followed by "end <count>" lines and one
// "u v +|-" line per event.
func (s *Stream) WriteEvents(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d snapshots %d\n", s.NumNodes, len(s.Ends)); err != nil {
		return err
	}
	for _, e := range s.Ends {
		if _, err := fmt.Fprintf(bw, "end %d\n", e); err != nil {
			return err
		}
	}
	for _, ev := range s.Events {
		op := "+"
		if ev.Type == Delete {
			op = "-"
		}
		if _, err := fmt.Fprintf(bw, "%d %d %s\n", ev.U, ev.V, op); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEvents parses the format written by WriteEvents.
func ReadEvents(r io.Reader) (*Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	s := &Stream{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "#"):
			var n, k int
			if _, err := fmt.Sscanf(line, "# nodes %d snapshots %d", &n, &k); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad header: %w", lineNo, err)
			}
			s.NumNodes = n
		case strings.HasPrefix(line, "end "):
			e, err := strconv.Atoi(strings.TrimPrefix(line, "end "))
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad end: %w", lineNo, err)
			}
			s.Ends = append(s.Ends, e)
		default:
			f := strings.Fields(line)
			if len(f) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'u v op', got %q", lineNo, line)
			}
			u, err := strconv.Atoi(f[0])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			v, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			var typ EventType
			switch f[2] {
			case "+":
				typ = Insert
			case "-":
				typ = Delete
			default:
				return nil, fmt.Errorf("graph: line %d: bad op %q", lineNo, f[2])
			}
			s.Events = append(s.Events, Event{U: int32(u), V: int32(v), Type: typ})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
