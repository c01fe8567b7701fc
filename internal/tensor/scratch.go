package tensor

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Scratch metrics, the pool.* keys (no-ops until obs.Enable; see
// docs/OBSERVABILITY.md).
var (
	poolGets   = obs.GetCounter("pool.gets")
	poolPuts   = obs.GetCounter("pool.puts")
	poolMisses = obs.GetCounter("pool.misses")
)

// Scratch is one whole-graph pass's set of scratch matrices. Such a
// pass needs a few N-row buffers, and a sync.Pool would keep whatever it
// holds reachable through the next collection: how much of that scratch
// the heap carried at a GC, and so the GC's next heap goal, would hinge
// on when the collection ran. A Scratch keeps exactly the buffers its
// last pass used, allocated with 1/8 headroom so a slightly larger graph
// still fits, and AcquireScratch/Release hand one retained set from pass
// to pass. A pass that finds the set taken by a concurrent one gets an
// empty set of its own.
//
// Get returns a matrix whose contents are unspecified: zero or fully
// overwrite it before reading. Put transfers ownership back; the caller
// must not keep the matrix or views of its Data. A Scratch is not safe
// for concurrent use.
type Scratch[T Float] struct {
	idle []*Mat[T]    // the last pass's buffers, not yet lent in this one
	back []*Mat[T]    // buffers returned in this pass
	held atomic.Int64 // elements retained by the last Release
}

// One retained set per precision.
var (
	retained64 atomic.Pointer[Scratch[float64]]
	retained32 atomic.Pointer[Scratch[float32]]
)

func retained[T Float]() *atomic.Pointer[Scratch[T]] {
	var zero T
	if _, ok := any(zero).(float32); ok {
		return any(&retained32).(*atomic.Pointer[Scratch[T]])
	}
	return any(&retained64).(*atomic.Pointer[Scratch[T]])
}

// AcquireScratch returns the retained set, or an empty one while another
// pass holds it. Call Release when the pass is done.
func AcquireScratch[T Float]() *Scratch[T] {
	if s := retained[T]().Swap(nil); s != nil {
		return s
	}
	return new(Scratch[T])
}

// Release ends the pass: buffers it did not use are dropped, and the set
// is retained for the next AcquireScratch unless a larger one already is.
func (s *Scratch[T]) Release() {
	clear(s.idle)
	s.idle, s.back = s.back, s.idle[:0]
	var held int64
	for _, d := range s.idle {
		held += int64(cap(d.Data))
	}
	s.held.Store(held)
	p := retained[T]()
	for {
		old := p.Load()
		if old != nil && old.held.Load() >= held {
			return
		}
		if p.CompareAndSwap(old, s) {
			return
		}
	}
}

// Get returns a rows×cols matrix backed by the smallest free buffer that
// fits, allocating one when none does. Contents are unspecified.
func (s *Scratch[T]) Get(rows, cols int) *Mat[T] {
	poolGets.Inc()
	n := rows * cols
	var list *[]*Mat[T]
	best := -1
	for _, l := range [...]*[]*Mat[T]{&s.back, &s.idle} {
		for i, d := range *l {
			if c := cap(d.Data); c >= n && (best < 0 || c < cap((*list)[best].Data)) {
				list, best = l, i
			}
		}
	}
	var d *Mat[T]
	if best < 0 {
		poolMisses.Inc()
		d = &Mat[T]{Data: make([]T, n, n+n/8)}
	} else {
		l := *list
		d = l[best]
		l[best] = l[len(l)-1]
		l[len(l)-1] = nil
		*list = l[:len(l)-1]
	}
	d.Rows, d.Cols, d.Data = rows, cols, d.Data[:n]
	return d
}

// Put returns a matrix obtained from s.Get to the set.
func (s *Scratch[T]) Put(d *Mat[T]) {
	if d == nil || cap(d.Data) == 0 {
		return
	}
	poolPuts.Inc()
	s.back = append(s.back, d)
}
