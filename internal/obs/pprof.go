package obs

import (
	"context"
	"runtime/pprof"
)

// StageLabel is the pprof label key every Stage call sets; filter CPU
// profiles with it, e.g. `go tool pprof -tagfocus treesvd_stage=tree.level1`.
const StageLabel = "treesvd_stage"

// Stage runs f with the goroutine labeled as executing the named pipeline
// stage, so CPU profile samples — including those of worker goroutines
// spawned inside f, which inherit the label — are attributed to the
// stage. Nested stages override the label for their extent, giving the
// innermost attribution. It returns f's error.
func Stage(ctx context.Context, stage string, f func(context.Context) error) error {
	var err error
	pprof.Do(ctx, pprof.Labels(StageLabel, stage), func(ctx context.Context) { err = f(ctx) })
	return err
}
