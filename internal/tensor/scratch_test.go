package tensor

import (
	"sync"
	"testing"
)

// fresh clears the retained set so a test starts from an empty slot.
func fresh[T Float]() { retained[T]().Store(nil) }

func first[T Float](d *Mat[T]) *T { return &d.Data[:1][0] }

// TestScratchReusesAcrossPasses: a second pass of the same shapes gets
// the first pass's buffers back, best-fit, and allocates nothing.
func TestScratchReusesAcrossPasses(t *testing.T) {
	fresh[float64]()
	s := AcquireScratch[float64]()
	a, b := s.Get(100, 4), s.Get(100, 8)
	pa, pb := first(a), first(b)
	s.Put(a)
	s.Put(b)
	s.Release()

	s2 := AcquireScratch[float64]()
	if s2 != s {
		t.Fatal("AcquireScratch did not hand back the retained set")
	}
	// The smaller request must take the smaller buffer even though the
	// larger one also fits.
	a2, b2 := s2.Get(100, 4), s2.Get(100, 8)
	if first(a2) != pa || first(b2) != pb {
		t.Fatal("second pass did not reuse the first pass's buffers best-fit")
	}
	if a2.Rows != 100 || a2.Cols != 4 || len(a2.Data) != 400 {
		t.Fatalf("Get shape %d×%d len %d, want 100×4 len 400", a2.Rows, a2.Cols, len(a2.Data))
	}
	// 1/8 headroom: a slightly larger request still fits the old buffer.
	s2.Put(b2)
	if c := s2.Get(105, 8); first(c) != pb {
		t.Fatal("a request within the 1/8 headroom did not reuse the buffer")
	}
	s2.Release()
}

// TestScratchDropsBuffersThePassDidNotUse: Release keeps exactly what
// the pass used, so the scratch of an earlier, larger graph does not
// stay pinned once smaller passes follow.
func TestScratchDropsBuffersThePassDidNotUse(t *testing.T) {
	fresh[float32]()
	s := AcquireScratch[float32]()
	big, small := s.Get(1000, 64), s.Get(10, 4)
	s.Put(big)
	s.Put(small)
	s.Release()
	if h := s.held.Load(); h != int64(cap(big.Data)+cap(small.Data)) {
		t.Fatalf("held %d, want %d", h, cap(big.Data)+cap(small.Data))
	}

	s = AcquireScratch[float32]()
	d := s.Get(10, 4)
	s.Put(d)
	s.Release()
	if h := s.held.Load(); len(s.idle) != 1 || h != int64(cap(small.Data)) {
		t.Fatalf("after a small pass the set holds %d buffers (%d elements), want only the small one", len(s.idle), h)
	}
}

// TestScratchConcurrentPasses: a pass that finds the set taken gets an
// empty one, and releasing it does not displace a larger retained set.
func TestScratchConcurrentPasses(t *testing.T) {
	fresh[float64]()
	a := AcquireScratch[float64]()
	b := AcquireScratch[float64]()
	if a == b {
		t.Fatal("two concurrent passes share one set")
	}
	a.Put(a.Get(500, 8))
	b.Put(b.Get(50, 8))
	a.Release()
	b.Release()
	if got := AcquireScratch[float64](); got != a {
		t.Fatal("the smaller set displaced the larger retained one")
	}
}

// TestScratchRace hammers acquire/get/put/release from many goroutines
// under the race detector; each goroutine must fully own its buffers.
func TestScratchRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := AcquireScratch[float64]()
				d := s.Get(16+g, 8)
				for j := range d.Data {
					d.Data[j] = float64(g)
				}
				for _, v := range d.Data {
					if v != float64(g) {
						t.Errorf("scratch buffer shared across goroutines")
						return
					}
				}
				s.Put(d)
				s.Release()
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkScratchPass measures a warm pass: acquire, three buffers,
// release. It must not allocate.
func BenchmarkScratchPass(b *testing.B) {
	fresh[float64]()
	pass := func() {
		s := AcquireScratch[float64]()
		x, y := s.Get(256, 64), s.Get(256, 64)
		s.Put(x)
		z := s.Get(256, 128)
		s.Put(y)
		s.Put(z)
		s.Release()
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
