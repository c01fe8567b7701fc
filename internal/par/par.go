// Package par is the process's one parallel-for: a loop over indices
// [0, n) run by the calling goroutine and up to workers-1 long-lived
// helpers, which pull indices off a shared atomic cursor. The sparse
// SpMM band scheduler, the tiled inference pass in internal/core and the
// insertion flow's cone ranking all run on it, so concurrent callers
// share one set of helpers (NumCPU-1 of them, started on first use)
// instead of each starting its own goroutines.
//
// Handing a helper its share is a channel send of a run from a Free
// list, and a run only holds the caller's Job, so a steady-state For
// allocates nothing as long as the Job's own state is not allocated per
// call either; Free is the list the callers keep that state in. The
// send never blocks: a helper that is busy with another caller's run is
// simply not used, so the caller always finishes the loop itself if need
// be. That is also why a For nested inside a Job cannot deadlock: it
// takes whichever helpers are idle, possibly none, and runs the rest
// inline.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is a loop body: Do(i) handles index i. Do runs concurrently for
// different indices and must not depend on which goroutine runs it or in
// which order the indices come.
type Job interface{ Do(i int) }

// Workers resolves an effective worker count: workers <= 0 selects
// GOMAXPROCS, and the result never exceeds min(GOMAXPROCS, NumCPU).
// Clamping to NumCPU alone would oversubscribe the scheduler in
// cgroup-limited containers, where GOMAXPROCS is set below the host's
// core count.
func Workers(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := runtime.GOMAXPROCS(0); workers > n {
		workers = n
	}
	if n := runtime.NumCPU(); workers > n {
		workers = n
	}
	return workers
}

// For runs job.Do(i) for every i in [0, n) on up to Workers(workers)
// goroutines, the caller among them, and returns when all are done. With
// one worker, or one index, the loop runs inline on the caller.
func For(workers, n int, job Job) {
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job.Do(i)
		}
		return
	}
	r := runs.Get()
	r.job, r.n = job, n
	r.cursor.Store(0)
	startHelpers.Do(func() {
		for i := 1; i < runtime.NumCPU(); i++ {
			go func() {
				for r := range helperRuns {
					r.work()
					r.wg.Done()
				}
			}()
		}
	})
	for w := 1; w < workers; w++ {
		r.wg.Add(1)
		select {
		case helperRuns <- r:
		default:
			r.wg.Done() // every helper is busy elsewhere: fewer hands, same result
		}
	}
	r.work()
	r.wg.Wait()
	r.job = nil
	runs.Put(r)
}

// The helpers live as long as the process, like the runtime's own
// workers: an idle one only blocks on the channel, so nothing needs to
// stop them.
var (
	startHelpers sync.Once
	helperRuns   = make(chan *run)
	runs         = NewFree[run]()
)

// run is the shared state of one For: the body, the index count and the
// cursor the workers pull indices off.
type run struct {
	job    Job
	n      int
	cursor atomic.Int64
	wg     sync.WaitGroup
}

// work runs indices until none are left.
func (r *run) work() {
	for {
		i := int(r.cursor.Add(1)) - 1
		if i >= r.n {
			return
		}
		r.job.Do(i)
	}
}

// Free is a bounded free list of *T. Unlike a sync.Pool it keeps what it
// holds across garbage collections, and it has no per-P slots to rebuild
// after each one, so a steady state that takes items and gives them back
// never allocates, however often the GC runs and whichever core the
// caller runs on.
type Free[T any] chan *T

// NewFree returns an empty list that keeps up to 16 items: more than any
// workload here holds at once (one per goroutine in a parallel loop or
// pass, and those are bounded by the cores plus the concurrent callers).
// An item given back to a full list is left to the GC.
func NewFree[T any]() Free[T] { return make(Free[T], 16) }

// Get returns a listed item, or a new zero one when the list is empty.
func (f Free[T]) Get() *T {
	select {
	case x := <-f:
		return x
	default:
		return new(T)
	}
}

// Put gives x back to the list, or drops it when the list is full.
func (f Free[T]) Put(x *T) {
	select {
	case f <- x:
	default:
	}
}
