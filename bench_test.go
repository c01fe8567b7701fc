// Package repro_test hosts the repository-level benchmark harness.
// BenchmarkSuite runs every internal/benchsuite entry — the bodies
// cmd/benchjson records into BENCH_NNNN.json — as a sub-benchmark named
// after its BENCH row, e.g. BenchmarkSuite/AblationSpMM50k/workers=4.
// The four training-heavy table and figure regenerations below run for
// minutes, so they delegate to internal/experiments in Quick mode here
// and stay out of the artifact. Run with
//
//	go test -run '^$' -bench . -benchmem
//
// Full-size regeneration of the paper's numbers is cmd/experiments.
package repro_test

import (
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/experiments"
)

// BenchmarkSuite runs the shared suite. -short skips the entries that
// run for seconds per op (PaperScaleForward).
func BenchmarkSuite(b *testing.B) {
	for _, e := range benchsuite.All {
		b.Run(e.Name, func(b *testing.B) {
			if e.Long && testing.Short() {
				b.Skip("seconds per op; skipped in -short mode")
			}
			e.Run(b)
		})
	}
}

func quickCfg(i int) experiments.Config {
	return experiments.Config{Quick: true, Seed: int64(100 + i)}
}

// BenchmarkFig8TrainingDepth runs the search-depth study (Figure 8).
func BenchmarkFig8TrainingDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(quickCfg(i))
	}
}

// BenchmarkTable2Classifiers runs the balanced-set classifier comparison
// (Table 2): LR, RF, SVM, MLP on cone features vs. the GCN.
func BenchmarkTable2Classifiers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(quickCfg(i))
	}
}

// BenchmarkFig9MultiStage runs the imbalanced F1 comparison (Figure 9).
func BenchmarkFig9MultiStage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(quickCfg(i))
	}
}

// BenchmarkTable3OPIFlow runs the full testability comparison (Table 3):
// cascade training, both insertion flows and fault-simulation scoring.
func BenchmarkTable3OPIFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(quickCfg(i))
	}
}
