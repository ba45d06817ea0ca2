package server

import (
	"context"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/obs"
)

// Admission control: each v1 endpoint gets its own gate, a fixed number
// of in-flight slots plus a bounded wait queue of twice as many. A
// request that finds every slot busy queues for at most queueWait (less
// if its own deadline is nearer), then is shed with a 503 carrying a
// typed *treesvd.OverloadError and a Retry-After hint — the server
// degrades to fast rejections instead of collapsing under unbounded
// queueing. /healthz, /readyz, /metrics and pprof are never gated.
const (
	readSlots   = 64 // per read endpoint: version, recommend, embedding, rightembedding
	ingestSlots = 8  // POST /v1/events
	queueWait   = 25 * time.Millisecond
	retryAfter  = 50 * time.Millisecond // the Retry-After hint of a shed response
)

// gate is one endpoint's admission control: slots is the in-flight
// bound, queue tokens bound the waiters.
type gate struct {
	endpoint   string
	slots      chan struct{}
	queue      chan struct{}
	wait       time.Duration
	retryAfter time.Duration
	queued     *obs.Gauge
}

// newGate builds the gate for one endpoint: slots in flight, depth
// waiters, each waiting at most wait, and retryAfter as the shed hint.
func newGate(endpoint string, slots, depth int, wait, retryAfter time.Duration, queued *obs.Gauge) *gate {
	return &gate{
		endpoint:   endpoint,
		slots:      make(chan struct{}, slots),
		queue:      make(chan struct{}, depth),
		wait:       wait,
		retryAfter: retryAfter,
		queued:     queued,
	}
}

// acquire admits the request or sheds it with a *treesvd.OverloadError.
// On success the returned release frees the slot; callers must invoke it
// exactly once. The wait is deadline-aware: a request whose context
// expires sooner than the gate's wait waits only that long, and one that
// arrives already expired sheds immediately — queueing work that cannot
// be answered in time only deepens an overload.
func (g *gate) acquire(ctx context.Context) (release func(), err error) {
	select {
	case g.slots <- struct{}{}:
		return g.release, nil
	default:
	}
	select {
	case g.queue <- struct{}{}:
	default:
		return nil, g.shed() // queue full: reject in O(1)
	}
	defer func() { <-g.queue }()
	wait := g.wait
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < wait {
			wait = rem
		}
	}
	if wait <= 0 {
		return nil, g.shed()
	}
	g.queued.Add(1)
	defer g.queued.Add(-1)
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		return g.release, nil
	case <-t.C:
		return nil, g.shed()
	case <-ctx.Done():
		return nil, g.shed()
	}
}

func (g *gate) release() { <-g.slots }

func (g *gate) shed() error {
	return &treesvd.OverloadError{Endpoint: g.endpoint, RetryAfter: g.retryAfter}
}
