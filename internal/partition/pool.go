package partition

import (
	"runtime"
	"sync"
)

// Pool is a reused worker pool for per-shard tasks: goroutines are
// spawned once (lazily, on the first parallel Run) and fed through an
// unbuffered channel, so a layer-by-layer sharded forward pays the
// goroutine start-up cost once per predictor instead of once per
// barrier. A Pool is safe for use by one Run at a time; tasks must not
// call Run re-entrantly (they would deadlock waiting for workers the
// outer Run occupies).
type Pool struct {
	workers int
	start   sync.Once
	jobs    chan poolJob

	mu     sync.Mutex
	closed bool
}

type poolJob struct {
	fn  func()
	run *poolRun
}

// poolRun is the state one parallel Run shares with its tasks, kept in a
// single allocation: the completion barrier and the first panic.
type poolRun struct {
	wg  sync.WaitGroup
	rec panicRecord
}

// panicRecord captures the first panic raised by any task of a Run so
// the caller can re-raise it (fuzzing relies on sharded-executor
// panics surfacing in the fuzz worker, not dying in a pool goroutine).
type panicRecord struct {
	mu  sync.Mutex
	val any
	set bool
}

func (r *panicRecord) capture(v any) {
	r.mu.Lock()
	if !r.set {
		r.val, r.set = v, true
	}
	r.mu.Unlock()
}

// NewPool returns a pool with the given worker count; workers <= 0
// selects GOMAXPROCS. The count is deliberately not clamped to
// runtime.NumCPU(): the bench matrix measures worker scaling by
// varying GOMAXPROCS, and a NumCPU clamp would silently flatten it.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The channel exists from construction (only the goroutines are
	// lazy) so Close never races the sync.Once publication of a
	// lazily created field.
	return &Pool{workers: workers, jobs: make(chan poolJob)}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes every task and returns once all have finished. With one
// worker (or one task, or after Close) the tasks run inline in order —
// no goroutines, fully deterministic. If any task panics, Run panics
// with the first captured value after the remaining tasks finish.
func (p *Pool) Run(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if p.workers == 1 || len(tasks) == 1 || closed {
		for _, fn := range tasks {
			fn()
		}
		return
	}
	p.start.Do(p.spawn)
	run := &poolRun{}
	run.wg.Add(len(tasks))
	for _, fn := range tasks {
		p.jobs <- poolJob{fn: fn, run: run}
	}
	run.wg.Wait()
	if run.rec.set {
		panic(run.rec.val)
	}
}

func (p *Pool) spawn() {
	for i := 0; i < p.workers; i++ {
		go func() {
			for j := range p.jobs {
				j.do()
			}
		}()
	}
}

func (j poolJob) do() {
	defer j.run.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			j.run.rec.capture(r)
		}
	}()
	j.fn()
}

// Close releases the pool's goroutines. It must not race an in-flight
// Run; subsequent Runs execute inline. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.jobs)
}
