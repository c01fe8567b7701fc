package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchsuite"
)

// writeBench serializes an artifact into dir and returns its path.
func writeBench(t *testing.T, dir, name string, f benchsuite.BenchFile) string {
	t.Helper()
	if f.SchemaVersion == 0 {
		f.SchemaVersion = 1
	}
	if f.NumCPU == 0 {
		f.NumCPU = 1
		f.GOMAXPROCS = 1
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseline() benchsuite.BenchFile {
	return benchsuite.BenchFile{
		GitDescribe: "abc123",
		Benchmarks: []benchsuite.BenchResult{
			{Name: "SpMM", NsPerOp: 1_000_000, AllocsPerOp: 0},
			{Name: "FaultSim", NsPerOp: 2_000_000, AllocsPerOp: 100},
		},
	}
}

func TestWithinToleranceExitsZero(t *testing.T) {
	dir := t.TempDir()
	newer := baseline()
	newer.Benchmarks[0].NsPerOp = 1_200_000 // +20% < 50% tol
	newer.Benchmarks[1].AllocsPerOp = 102   // within alloc grace
	old := writeBench(t, dir, "old.json", baseline())
	new_ := writeBench(t, dir, "new.json", newer)

	var out bytes.Buffer
	regressions, err := run([]string{old, new_}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if regressions != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "within tolerance") {
		t.Errorf("missing pass verdict:\n%s", out.String())
	}
}

// TestRegressedNsPerOpFails is the acceptance-criteria case: a
// synthetic regressed BENCH file must make the gate exit non-zero
// (main maps regressions > 0 to exit status 1).
func TestRegressedNsPerOpFails(t *testing.T) {
	dir := t.TempDir()
	newer := baseline()
	newer.Benchmarks[0].NsPerOp = 1_600_000 // +60% > 50% tol
	old := writeBench(t, dir, "old.json", baseline())
	new_ := writeBench(t, dir, "new.json", newer)

	var out bytes.Buffer
	regressions, err := run([]string{old, new_}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION ns/op") {
		t.Errorf("missing regression verdict:\n%s", out.String())
	}
}

func TestRegressedAllocsFails(t *testing.T) {
	dir := t.TempDir()
	newer := baseline()
	newer.Benchmarks[1].AllocsPerOp = 150 // 100 -> 150, limit is 100*1.1+2
	old := writeBench(t, dir, "old.json", baseline())
	new_ := writeBench(t, dir, "new.json", newer)

	var out bytes.Buffer
	regressions, err := run([]string{old, new_}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if regressions != 1 || !strings.Contains(out.String(), "REGRESSION allocs/op") {
		t.Fatalf("regressions = %d:\n%s", regressions, out.String())
	}
}

func TestTightenedToleranceFlag(t *testing.T) {
	dir := t.TempDir()
	newer := baseline()
	newer.Benchmarks[0].NsPerOp = 1_200_000 // +20%
	old := writeBench(t, dir, "old.json", baseline())
	new_ := writeBench(t, dir, "new.json", newer)

	var out bytes.Buffer
	regressions, err := run([]string{"-tol", "0.10", old, new_}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if regressions != 1 {
		t.Fatalf("-tol 0.10 should flag a +20%% slowdown, got %d regressions\n%s", regressions, out.String())
	}
}

// TestTolForOverride: a per-benchmark -tol-for entry must loosen (or
// tighten) only the matching benchmarks, first match winning, and
// reject malformed specs.
func TestTolForOverride(t *testing.T) {
	dir := t.TempDir()
	newer := baseline()
	newer.Benchmarks[0].NsPerOp = 1_600_000 // SpMM +60%
	newer.Benchmarks[1].NsPerOp = 3_200_000 // FaultSim +60%
	old := writeBench(t, dir, "old.json", baseline())
	new_ := writeBench(t, dir, "new.json", newer)

	// SpMM gets 75% headroom and passes; FaultSim keeps the 50% default
	// and regresses.
	var out bytes.Buffer
	regressions, err := run([]string{"-tol-for", "SpMM=0.75", old, new_}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if regressions != 1 || !strings.Contains(out.String(), "REGRESSION ns/op +60% > 50%") {
		t.Fatalf("regressions = %d, want only FaultSim at default tol:\n%s", regressions, out.String())
	}

	// First match wins: the broad catch-all after the specific entry
	// must not override it.
	out.Reset()
	regressions, err = run([]string{"-tol-for", "SpMM=0.75", "-tol-for", ".*=0.01", old, new_}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if regressions != 1 {
		t.Fatalf("first-match-wins violated, regressions = %d:\n%s", regressions, out.String())
	}

	for _, bad := range []string{"no-equals", "=0.5", "SpMM=-1", "SpMM=xyz", "(=0.5"} {
		if _, err := run([]string{"-tol-for", bad, old, new_}, io.Discard); err == nil {
			t.Errorf("-tol-for %q should be rejected", bad)
		}
	}
}

func TestMinNsSkipsNoisyTinyBenchmarks(t *testing.T) {
	dir := t.TempDir()
	oldB := benchsuite.BenchFile{Benchmarks: []benchsuite.BenchResult{{Name: "Tiny", NsPerOp: 50, AllocsPerOp: 0}}}
	newB := benchsuite.BenchFile{Benchmarks: []benchsuite.BenchResult{{Name: "Tiny", NsPerOp: 500, AllocsPerOp: 0}}}
	old := writeBench(t, dir, "old.json", oldB)
	new_ := writeBench(t, dir, "new.json", newB)

	var out bytes.Buffer
	regressions, err := run([]string{old, new_}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if regressions != 0 {
		t.Fatalf("sub-min-ns benchmark should not gate, got %d regressions\n%s", regressions, out.String())
	}
}

func TestAddedAndRemovedBenchmarksDoNotGate(t *testing.T) {
	dir := t.TempDir()
	oldB := baseline()
	newB := benchsuite.BenchFile{
		Benchmarks: []benchsuite.BenchResult{
			{Name: "SpMM", NsPerOp: 1_000_000},
			{Name: "Brand-new", NsPerOp: 9_999_999, AllocsPerOp: 5},
		},
	}
	old := writeBench(t, dir, "old.json", oldB)
	new_ := writeBench(t, dir, "new.json", newB)

	var out bytes.Buffer
	regressions, err := run([]string{old, new_}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if regressions != 0 {
		t.Fatalf("suite changes should not gate, got %d\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "new (no baseline)") || !strings.Contains(out.String(), "removed from suite") {
		t.Errorf("suite-change notes missing:\n%s", out.String())
	}
}

func TestBadInputsError(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"nope.json", "also-nope.json"}, &out); err == nil {
		t.Error("missing files should error")
	}
	if _, err := run([]string{}, &out); err == nil {
		t.Error("missing arguments should error")
	}
	dir := t.TempDir()
	empty := writeBench(t, dir, "e.json", benchsuite.BenchFile{GitDescribe: "x"})
	if _, err := run([]string{empty, empty}, &out); err == nil {
		t.Error("artifact without benchmarks should error")
	}
}
