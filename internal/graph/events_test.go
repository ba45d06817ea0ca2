package graph

import "testing"

// TestEncodeDecodeEvents round-trips the binary event form, ids at
// MaxInt32 included, and refuses a payload that is not a whole number of
// events and an event of unknown type.
func TestEncodeDecodeEvents(t *testing.T) {
	events := []Event{
		{U: 0, V: 1, Type: Insert},
		{U: 2147483647, V: 0, Type: Delete},
		{U: 5, V: 5, Type: Insert},
	}
	got, err := DecodeEvents(AppendEvents(nil, events))
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
	if _, err := DecodeEvents(make([]byte, 10)); err == nil {
		t.Fatal("accepted a payload of non-multiple length")
	}
	bad := AppendEvents(nil, events[:1])
	bad[8] = 9
	if _, err := DecodeEvents(bad); err == nil {
		t.Fatal("accepted an unknown event type")
	}
}
