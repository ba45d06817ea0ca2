package ppr

import (
	"context"
	"syscall"
	"testing"
	"time"

	"github.com/tree-svd/treesvd/internal/graph"
)

// bgt is the test-wide context; cancellation paths build their own.
var bgt = context.Background()

// mustPPR unwraps constructor results in tests.
func mustPPR[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// must0t fails the calling test (via panic) on an unexpected error.
func must0t(err error) {
	if err != nil {
		panic(err)
	}
}

// cpuTime is the user and system CPU time the process has used so far,
// every thread and the garbage collector included. The benchmarks report
// it beside wall time: it counts work, so time the machine gives to other
// processes does not move it.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// content returns st's non-zero estimates and residues: what tests read of
// a state.
func content(st *State) (p, r map[int32]float64) {
	p, r = map[int32]float64{}, map[int32]float64{}
	st.Each(func(u int32, pu, ru float64) {
		if pu != 0 {
			p[u] = pu
		}
		if ru != 0 {
			r[u] = ru
		}
	})
	return p, r
}

// applyEvents advances pr's graph through events and brings the states
// and the proximity matrix level with it, as the facade's stage table
// does.
func applyEvents(pr *Proximity, events []graph.Event) error {
	return pr.RepairApplied(bgt, ApplyAll(pr.Sub.Engine.G, events))
}
