package main

import (
	"testing"
	"time"
)

// buildWithin runs buildSynthetic under a deadline, turning a hang or a
// panic into a test failure instead of a stuck or crashed test binary.
func buildWithin(t *testing.T, nodes, edges int) error {
	t.Helper()
	type result struct {
		err      error
		panicked any
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- result{panicked: p}
			}
		}()
		_, err := buildSynthetic(nodes, edges, 8, 4, 1e-2, 0, 0, 1)
		done <- result{err: err}
	}()
	select {
	case r := <-done:
		if r.panicked != nil {
			t.Fatalf("buildSynthetic(nodes=%d, edges=%d) panicked: %v", nodes, edges, r.panicked)
		}
		return r.err
	case <-time.After(10 * time.Second):
		t.Fatalf("buildSynthetic(nodes=%d, edges=%d) did not return", nodes, edges)
		return nil
	}
}

func TestBuildSyntheticRejectsImpossibleShapes(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nodes, edges int
	}{
		{"no nodes", 0, 5},
		{"one node", 1, 1},
		{"more edges than node pairs", 3, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := buildWithin(t, tc.nodes, tc.edges); err == nil {
				t.Fatal("accepted an impossible shape")
			}
		})
	}
}

func TestBuildSyntheticSmall(t *testing.T) {
	if err := buildWithin(t, 40, 160); err != nil {
		t.Fatal(err)
	}
	// Every directed pair, self-loops included, is still a possible shape.
	if err := buildWithin(t, 3, 9); err != nil {
		t.Fatal(err)
	}
}
