package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// flightGroup coalesces concurrent identical work: while a compile for
// one design hash is in flight, every other request for the same hash
// waits for the leader's result instead of compiling (and running the
// forward pass) again. This is the request batcher of the serving
// layer — N concurrent /v1/score calls for the same netlist cost one
// netlist parse, one SCOAP analysis and one SpMM forward call, not N.
//
// It is a hand-rolled single-flight (the repository is stdlib-only);
// unlike typical implementations the wait is deadline-aware: a rider
// whose context expires stops waiting and reports the deadline error
// while the leader's work continues for the benefit of the others, and
// a rider whose leader ran out of time compiles for itself.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one in-flight execution and its eventual result.
// leaderID is the leader's request id, set before the call is published
// in the calls map (so immutable once riders can see it); riders record
// it as their batch.leader annotation — the phase breakdown of the work
// a rider waited on lives in the leader's trace under that id.
type flightCall struct {
	done     chan struct{}
	leaderID string
	val      *design
	err      error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: map[string]*flightCall{}}
}

// do executes fn once per key among concurrent callers. The first caller
// (the leader) runs fn synchronously; concurrent callers with the same
// key (riders) block until the leader finishes or their context expires.
// A rider shares the leader's result and error, except a context error
// while the rider's own context is live: the leader's deadline is not
// the rider's, so the rider calls do again and leads or rides a new
// flight. The boolean result reports whether this caller was the leader.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*design, error)) (*design, bool, error) {
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		if !ok {
			break // g.mu is still held: this caller leads
		}
		g.mu.Unlock()
		mBatchCoalesced.Inc()
		tr := obs.RequestFromContext(ctx)
		tr.Annotate("batch.role", "rider")
		if c.leaderID != "" {
			tr.Annotate("batch.leader", c.leaderID)
		}
		ph := tr.StartPhase("batch_wait")
		select {
		case <-c.done:
			ph.End()
			if isContextErr(c.err) && ctx.Err() == nil {
				continue
			}
			return c.val, false, c.err
		case <-ctx.Done():
			ph.End()
			mDeadline.Inc()
			return nil, false, ctx.Err()
		}
	}
	tr := obs.RequestFromContext(ctx)
	c := &flightCall{done: make(chan struct{}), leaderID: tr.ID()}
	g.calls[key] = c
	g.mu.Unlock()

	tr.Annotate("batch.role", "leader")
	mBatchLeaders.Inc()
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("serve: compile panic: %v", r)
			}
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn()
	}()
	return c.val, true, c.err
}

// isContextErr reports whether err is a context's cancellation or
// deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
