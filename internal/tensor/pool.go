package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pooled scratch buffers. Hot loops that need dense scratch on every
// call (the training backward's transpose products, run once per layer
// per step) would keep the GC hot and the caches cold allocating it. The
// pools below hand out size-classed (power-of-two element count)
// matrices so a buffer released at one shape is reusable at any smaller
// shape, and growth pays at most one reallocation per doubling.
//
// Contract: Get returns a matrix whose contents are UNSPECIFIED — call
// Zero (or fully overwrite) before reading. Put transfers ownership
// back; the caller must not retain the matrix or views of its Data.
// All functions are safe for concurrent use (sync.Pool-backed).

// Pool metrics (no-ops until obs.Enable; see docs/OBSERVABILITY.md).
var (
	poolGets   = obs.GetCounter("pool.gets")
	poolPuts   = obs.GetCounter("pool.puts")
	poolMisses = obs.GetCounter("pool.misses")
)

// poolClasses bounds the size classes at 2^(poolClasses-1) elements per
// buffer (≈1 GiB of float64), far above any graph this repo handles.
const poolClasses = 28

// One set of size classes per precision: a pooled float64 buffer is
// never handed out as float32 storage or vice versa.
var densePools, dense32Pools [poolClasses]sync.Pool

func pools[T Float]() *[poolClasses]sync.Pool {
	var zero T
	if _, ok := any(zero).(float32); ok {
		return &dense32Pools
	}
	return &densePools
}

// sizeClass returns the smallest c with 1<<c >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a rows×cols matrix backed by pooled storage. Contents are
// unspecified. Release with Put.
func Get[T Float](rows, cols int) *Mat[T] {
	poolGets.Inc()
	n := rows * cols
	c := sizeClass(n)
	if c >= poolClasses {
		poolMisses.Inc()
		return New[T](rows, cols)
	}
	d, _ := pools[T]()[c].Get().(*Mat[T])
	if d == nil {
		poolMisses.Inc()
		d = &Mat[T]{Data: make([]T, 1<<c)}
	}
	d.Rows, d.Cols = rows, cols
	d.Data = d.Data[:n]
	return d
}

// Put returns a matrix obtained from Get to the pool. Matrices allocated
// elsewhere are accepted too (their capacity decides the class). nil and
// zero-capacity matrices are ignored.
func Put[T Float](d *Mat[T]) {
	if d == nil || cap(d.Data) == 0 {
		return
	}
	// Floor class: every Get from class c needs at most 1<<c elements,
	// which cap >= 1<<c satisfies.
	c := bits.Len(uint(cap(d.Data))) - 1
	if c >= poolClasses {
		return
	}
	poolPuts.Inc()
	d.Data = d.Data[:cap(d.Data)]
	d.Rows, d.Cols = 0, 0
	pools[T]()[c].Put(d)
}

// GetDense is Get for float64.
func GetDense(rows, cols int) *Dense { return Get[float64](rows, cols) }

// PutDense is Put for float64.
func PutDense(d *Dense) { Put(d) }

// GetDense32 is Get for float32.
func GetDense32(rows, cols int) *Dense32 { return Get[float32](rows, cols) }

// PutDense32 is Put for float32.
func PutDense32(d *Dense32) { Put(d) }

// Scratch is one whole-graph pass's set of scratch matrices. The shared
// pool above suits small, frequent, concurrent requests. A whole-graph
// inference pass instead needs a few N-row buffers, and a sync.Pool
// keeps whatever it holds reachable through the next collection: how
// much of that scratch the heap carried at a GC, and so the GC's next
// heap goal, would hinge on when the collection ran. A Scratch keeps
// exactly the buffers its last pass used, allocated with
// 1/8 headroom so a slightly larger graph still fits, and
// AcquireScratch/Release hand one retained set from pass to pass. A pass
// that finds the set taken by a concurrent one gets an empty set of its
// own.
//
// Get and Put follow the shared pool's contract. A Scratch is not safe
// for concurrent use; the nil *Scratch is the shared pool.
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
	if s == nil {
		return Get[T](rows, cols)
	}
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
	if s == nil {
		Put(d)
		return
	}
	if d == nil || cap(d.Data) == 0 {
		return
	}
	poolPuts.Inc()
	s.back = append(s.back, d)
}
