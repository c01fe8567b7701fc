package main

import (
	"runtime"
	"testing"
	"time"
)

// TestResultRecordsEffectiveWorkers: a row records the worker count its
// kernels really ran with — the request clamped to min(GOMAXPROCS,
// NumCPU), with 0 meaning all of them — not the count it asked for.
func TestResultRecordsEffectiveWorkers(t *testing.T) {
	r := testing.BenchmarkResult{N: 4, T: 2 * time.Second, MemAllocs: 20, MemBytes: 4096}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		cores := min(procs, runtime.NumCPU())
		for _, tc := range []struct{ asked, want int }{
			{0, cores},
			{1, 1},
			{4, min(4, cores)},
			{64, cores},
		} {
			got := result("x/workers=T", r, tc.asked)
			if got.Workers != tc.want || got.GOMAXPROCS != procs {
				t.Errorf("GOMAXPROCS %d, asked %d: workers %d gomaxprocs %d, want %d and %d",
					procs, tc.asked, got.Workers, got.GOMAXPROCS, tc.want, procs)
			}
		}
	}
	got := result("x", r, 0)
	if got.Name != "x" || got.Iterations != 4 || got.NsPerOp != 5e8 ||
		got.AllocsPerOp != 5 || got.BytesPerOp != 1024 || got.Seconds != 2 {
		t.Errorf("row %+v does not carry the sample", got)
	}
}
