package benchsuite

import (
	"slices"
	"testing"
)

// TestRowSetIsPinned pins the artifact's rows, in order, with their
// worker counts and long bits. The rows are BENCH_0009's without the
// three Fig10ShardedForward/* rows (the sharded executor is deleted),
// plus AblationCOOMul and AblationFullSCOAPRecompute. benchcmp reports a
// row missing from a new artifact only as "removed from suite", so
// dropping or renaming one must be a deliberate edit of this list.
func TestRowSetIsPinned(t *testing.T) {
	want := []string{
		"Table1DatasetGeneration",
		"Fig10MatrixInference",
		"Fig10MatrixInferenceF32",
		"Fig10RecursiveInference",
		"PaperScaleForward",
		"AblationCOOMul",
		"AblationCSRMul",
		"AblationCSRMul32",
		"AblationSpMMParallel",
		"AblationSpMM50k/workers=1",
		"AblationSpMM50k/workers=4",
		"AblationSpMM50k/workers=numcpu",
		"AblationIncrementalSCOAP",
		"AblationFullSCOAPRecompute",
		"AblationFaultSimulation",
		"OPIFlowFull",
		"OPIFlowIncremental",
		"OPIFlowCoarseRefine",
		"CoarsenBuild",
		"CoarsenFineForward",
		"CoarsenCoarseForward",
		"ServeScoreBatched",
		"ServeScoreSerial",
		"ObsHistogramObserve",
	}
	// Every row asks for all cores except the matrix points at 1 and 4
	// workers, and PaperScaleForward is the one long row.
	workers := map[string]int{"AblationSpMM50k/workers=1": 1, "AblationSpMM50k/workers=4": 4}
	var got []string
	for _, e := range All {
		got = append(got, e.Name)
		if e.Run == nil || e.Workers != workers[e.Name] || e.Long != (e.Name == "PaperScaleForward") {
			t.Errorf("%s: Workers %d, Long %v, body set %v", e.Name, e.Workers, e.Long, e.Run != nil)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("suite rows\n%q\nwant\n%q", got, want)
	}
}
