package obs

import (
	"context"
	"runtime/pprof"
	"time"
)

// StageLabel is the pprof label key the stage table sets; filter CPU
// profiles with it, e.g. `go tool pprof -tagfocus treesvd_stage=tree.level1`.
const StageLabel = "treesvd_stage"

// Stage is one row of the stage table: the steps of Algorithm 4 in the
// order an ApplyEvents batch or a Rebuild runs them. A batch advances the
// graph, repairs the PPR states (dynamic Forward-Push on the states it
// reached, or every state from scratch), refreshes the proximity matrix,
// re-factors the level-1 blocks the Eqn. 2 trigger flags, re-derives the
// upper nodes above them, and publishes: it builds the next snapshot,
// waits on the publish barrier (a durable batch's WAL fsync) and stores
// the snapshot for readers. The last row, checkpoint.capture, runs
// outside the batch's run (Do): a durable embedder's synchronous save of
// the state for a checkpoint, after the batch it follows is acknowledged,
// so it is in neither that batch's wall time nor its trace.
type Stage uint8

// The rows of the stage table, in order; NumStages counts them.
const (
	StageAdvance Stage = iota
	StageRepair
	StageRefresh
	StageLevel1
	StageMerge
	StagePublishBuild
	StagePublishWait
	StagePublishStore
	StageCheckpointCapture
	NumStages
)

// stageNames are the rows' names: their StageLabel values, their
// treesvd_stage_nanos series and their TraceEvent.Stages entries.
var stageNames = [NumStages]string{
	"graph.advance", "ppr.repair", "ppr.refresh", "tree.level1", "tree.merge",
	"publish.build", "publish.wait", "publish.store", "checkpoint.capture",
}

// stageLabels holds each row's label set, built once so that entering a
// stage allocates nothing.
var stageLabels [NumStages]context.Context

func init() {
	for s, name := range stageNames {
		stageLabels[s] = pprof.WithLabels(context.Background(), pprof.Labels(StageLabel, name))
	}
}

// Do runs f as row st outside a run of the stage table, under st's
// StageLabel added to ctx's labels (restored after), and returns f's wall
// time.
func (st Stage) Do(ctx context.Context, f func()) time.Duration {
	start := time.Now()
	pprof.Do(ctx, pprof.Labels(StageLabel, st.String()), func(context.Context) { f() })
	return time.Since(start)
}

// String returns the row's name.
func (s Stage) String() string { return stageNames[s] }

// StageTime is one row of a TraceEvent's Stages.
type StageTime struct {
	Stage string
	Dur   time.Duration
}

// Stages times one run of the stage table. Start opens a run; Enter
// closes the running stage and opens the next: it reads the clock once,
// credits the time since the previous boundary to the stage it closes,
// and gives the goroutine the next stage's StageLabel as its only label,
// which the workers it spawns inherit. Stop closes the last stage and
// restores the labels of Start's ctx. A stage no Enter opened did not run. Enter and
// Stop do nothing on a nil Stages or outside a run.
type Stages struct {
	dur  [NumStages]time.Duration
	ran  [NumStages]bool
	cur  Stage
	last time.Time
	ctx  context.Context // Start's ctx while a run is open, else nil
}

// Start opens a run; ctx holds the labels Stop restores.
func (s *Stages) Start(ctx context.Context) { *s = Stages{cur: NumStages, ctx: ctx} }

// Enter closes the running stage, if any, and opens st.
func (s *Stages) Enter(st Stage) {
	if s == nil || s.ctx == nil {
		return
	}
	s.boundary()
	s.cur, s.ran[st] = st, true
	pprof.SetGoroutineLabels(stageLabels[st])
}

// Stop closes the run's last stage and restores Start's labels.
func (s *Stages) Stop() {
	if s == nil || s.ctx == nil {
		return
	}
	s.boundary()
	pprof.SetGoroutineLabels(s.ctx)
	s.ctx = nil
}

// boundary reads the clock and credits the time since the previous
// boundary to the running stage.
func (s *Stages) boundary() {
	now := time.Now()
	if s.cur < NumStages {
		s.dur[s.cur] += now.Sub(s.last)
	}
	s.last = now
}

// Since returns the time from t to the last run's final boundary, its
// Stop: the whole run's wall time when t was read just before it.
func (s *Stages) Since(t time.Time) time.Duration { return s.last.Sub(t) }

// Dur returns st's wall time in the last run, and whether it ran.
func (s *Stages) Dur(st Stage) (time.Duration, bool) { return s.dur[st], s.ran[st] }

// Times returns the stages the last run entered, in table order, with
// their wall times.
func (s *Stages) Times() []StageTime {
	var out []StageTime
	for st := range NumStages {
		if d, ok := s.Dur(st); ok {
			out = append(out, StageTime{Stage: st.String(), Dur: d})
		}
	}
	return out
}
