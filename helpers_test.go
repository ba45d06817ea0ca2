package treesvd

import (
	"context"
	"syscall"
	"testing"
	"time"
)

// bgt is the test-wide context; cancellation tests build their own.
var bgt = context.Background()

// mustTB unwraps (v, err) results in tests and benchmarks.
func mustTB[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// must0tb fails the calling test/benchmark (via panic) on an error.
func must0tb(err error) {
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
