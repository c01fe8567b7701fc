package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestClampWorkers pins the cgroup-aware clamp: the effective worker
// count must never exceed min(NumCPU, GOMAXPROCS). Clamping to NumCPU
// only would oversubscribe the Go scheduler when GOMAXPROCS is lowered
// (cgroup-limited containers).
func TestClampWorkers(t *testing.T) {
	limit := func() int {
		n := runtime.NumCPU()
		if p := runtime.GOMAXPROCS(0); p < n {
			n = p
		}
		return n
	}
	if got := Workers(0); got != limit() {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS-derived %d", got, limit())
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d, want 1", got)
	}
	if got := Workers(1 << 20); got != limit() {
		t.Fatalf("Workers(huge) = %d, want %d", got, limit())
	}
	// The regression case: GOMAXPROCS below NumCPU (single-CPU hosts
	// can't lower it further, so raise the request instead and check the
	// GOMAXPROCS bound is what engages).
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	if got := Workers(runtime.NumCPU() + 8); got != 1 {
		t.Fatalf("with GOMAXPROCS=1, Workers(NumCPU+8) = %d, want 1", got)
	}
	if got := Workers(0); got != 1 {
		t.Fatalf("with GOMAXPROCS=1, Workers(0) = %d, want 1", got)
	}
}

// counter counts how often each index ran.
type counter struct{ hits []atomic.Int32 }

func (c *counter) Do(i int) { c.hits[i].Add(1) }

func (c *counter) check(t *testing.T) {
	t.Helper()
	for i := range c.hits {
		if h := c.hits[i].Load(); h != 1 {
			t.Fatalf("index %d ran %d times, want once", i, h)
		}
	}
}

// TestForRunsEveryIndexOnce covers empty, single-index and many-index
// loops at every worker count, including counts above the index count.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		for _, workers := range []int{0, 1, 2, 8} {
			c := &counter{hits: make([]atomic.Int32, n)}
			For(workers, n, c)
			c.check(t)
		}
	}
}

// nested runs an inner For from every outer index.
type nested struct {
	inner []*counter
}

func (j *nested) Do(i int) { For(0, len(j.inner[i].hits), j.inner[i]) }

// TestForNestedRunsInline checks that a For started from inside a Job
// finishes (taking whichever helpers are idle, possibly none) instead of
// waiting for helpers the outer loop holds.
func TestForNestedRunsInline(t *testing.T) {
	j := &nested{}
	for i := 0; i < 16; i++ {
		j.inner = append(j.inner, &counter{hits: make([]atomic.Int32, 50+i)})
	}
	For(0, len(j.inner), j)
	for _, c := range j.inner {
		c.check(t)
	}
}

// TestForConcurrentCallers runs loops from several goroutines at once,
// so they contend for the helpers and the pooled runs. Run it under
// -race.
func TestForConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				c := &counter{hits: make([]atomic.Int32, 10+g*k)}
				For(0, len(c.hits), c)
				c.check(t)
			}
		}(g)
	}
	wg.Wait()
}

// TestForAllocFree pins that a steady-state For allocates nothing once
// its Job exists: no per-call goroutines, closures or run state.
func TestForAllocFree(t *testing.T) {
	c := &counter{hits: make([]atomic.Int32, 64)}
	For(0, len(c.hits), c) // start the helpers and fill the run pool
	if a := testing.AllocsPerRun(100, func() { For(0, len(c.hits), c) }); a != 0 {
		t.Fatalf("For allocated %.1f objects per call, want 0", a)
	}
}

// TestFreeKeepsItems checks the free list: an empty list makes a new
// item, a given-back item comes back, and a full list drops extras
// instead of blocking.
func TestFreeKeepsItems(t *testing.T) {
	f := NewFree[int]()
	a := f.Get()
	if a == nil {
		t.Fatal("Get on an empty list returned nil")
	}
	f.Put(a)
	if b := f.Get(); b != a {
		t.Fatal("Get did not return the item given back")
	}
	for i := 0; i < 2*cap(f); i++ {
		f.Put(new(int))
	}
	if len(f) != cap(f) {
		t.Fatalf("list holds %d items, want its capacity %d", len(f), cap(f))
	}
}
