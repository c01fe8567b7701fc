package sparse

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestMulConcurrentCallers runs parallel products in both precisions
// from several goroutines at once, so they contend for the shared
// helpers and pooled band runs, and checks every result bit for bit
// against the serial product. Run it under -race.
func TestMulConcurrentCallers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(31))
	type job struct {
		m       *CSR
		x, want *tensor.Dense
	}
	var jobs []job
	for i := 0; i < 6; i++ {
		m := randCOO(rng, 300+50*i, 200, 1500, true).ToCSR()
		x := randDense(rng, 200, 8)
		want := tensor.NewDense(m.NumRows, 8)
		m.MulDense(want, x)
		jobs = append(jobs, job{m, x, want})
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(f32 bool, j job) {
			defer wg.Done()
			x32 := tensor.FromDense(j.x)
			want32 := tensor.NewDense32(j.m.NumRows, 8)
			j.m.MulDense32(want32, x32)
			for k := 0; k < 20; k++ {
				if f32 {
					got := tensor.NewDense32(j.m.NumRows, 8)
					Mul(j.m, got, x32, 0)
					if d := tensor.MaxAbsDiff(got, want32); d != 0 {
						t.Errorf("concurrent f32 product differs from serial by %g", d)
						return
					}
					continue
				}
				got := tensor.NewDense(j.m.NumRows, 8)
				Mul(j.m, got, j.x, 0)
				if d := tensor.MaxAbsDiff(got, j.want); d != 0 {
					t.Errorf("concurrent f64 product differs from serial by %g", d)
					return
				}
			}
		}(i%2 == 1, j)
	}
	wg.Wait()
}
