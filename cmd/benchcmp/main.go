// Command benchcmp diffs two BENCH_NNNN.json artifacts (written by
// cmd/benchjson) and exits non-zero when the newer one regresses the
// recorded performance trajectory: ns/op beyond -tol, or allocs/op
// beyond -alloc-tol plus a small absolute grace. It is the automated
// gate scripts/check.sh runs against the committed baselines, so a PR
// cannot silently slow a tier-1 hot path.
//
// Usage:
//
//	benchcmp [-tol F] [-alloc-tol F] [-min-ns N] [-tol-for RE=F ...]
//	         old.json new.json
//
// -tol is the fractional ns/op slowdown allowed (default 0.50 — bench
// noise between recording machines is real; tighten it when comparing
// two runs from the same machine). -alloc-tol bounds allocs/op growth
// (allocation counts are deterministic, so the default is tight).
// -min-ns skips the ns/op comparison for benchmarks faster than N ns/op
// in the baseline, where timer noise dominates. -tol-for overrides the
// ns/op tolerance for benchmarks whose name matches a regexp
// (first match wins; repeatable) — e.g. -tol-for 'F32=0.75' gives the
// float32 kernels extra headroom, since their throughput swings with
// the recording host's SIMD width more than the float64 paths do.
//
// Benchmarks present in only one file are reported but never fail the
// gate (the suite is allowed to grow); differing num_cpu between the
// two artifacts produces a loud warning since timings are then not
// comparable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/benchsuite"
	"repro/internal/obs"
)

// allocGrace is the absolute allocs/op headroom added on top of
// -alloc-tol, so a zero-alloc baseline does not fail on a single
// incidental allocation.
const allocGrace = 2

// tolOverride is one -tol-for entry: benchmarks matching re use frac as
// their ns/op tolerance instead of -tol.
type tolOverride struct {
	re   *regexp.Regexp
	frac float64
}

// tolOverrides implements flag.Value for the repeatable -tol-for flag.
type tolOverrides []tolOverride

func (t *tolOverrides) String() string {
	parts := make([]string, len(*t))
	for i, o := range *t {
		parts[i] = fmt.Sprintf("%s=%g", o.re, o.frac)
	}
	return strings.Join(parts, ",")
}

func (t *tolOverrides) Set(s string) error {
	eq := strings.LastIndex(s, "=")
	if eq < 1 {
		return fmt.Errorf("-tol-for wants REGEXP=FRACTION, got %q", s)
	}
	re, err := regexp.Compile(s[:eq])
	if err != nil {
		return fmt.Errorf("-tol-for regexp: %w", err)
	}
	frac, err := strconv.ParseFloat(s[eq+1:], 64)
	if err != nil || frac < 0 {
		return fmt.Errorf("-tol-for fraction %q is not a non-negative number", s[eq+1:])
	}
	*t = append(*t, tolOverride{re: re, frac: frac})
	return nil
}

// tolFor resolves a benchmark's ns/op tolerance: the first matching
// override, otherwise the default.
func (t tolOverrides) tolFor(name string, def float64) float64 {
	for _, o := range t {
		if o.re.MatchString(name) {
			return o.frac
		}
	}
	return def
}

func main() {
	regressions, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if regressions > 0 {
		os.Exit(1)
	}
}

// run executes the comparison and returns the regression count; split
// from main so the unit test can drive the full flag-to-verdict path.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	tol := fs.Float64("tol", 0.50, "allowed fractional ns/op slowdown")
	allocTol := fs.Float64("alloc-tol", 0.10, "allowed fractional allocs/op growth")
	minNS := fs.Float64("min-ns", 1000, "skip ns/op comparison below this baseline ns/op")
	var overrides tolOverrides
	fs.Var(&overrides, "tol-for", "per-benchmark ns/op tolerance REGEXP=FRACTION (first match wins; repeatable)")
	version := fs.Bool("version", false, "print the build's git revision and exit")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *version {
		fmt.Fprintln(stdout, "benchcmp", revision())
		return 0, nil
	}
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("need exactly two artifacts: benchcmp old.json new.json")
	}
	oldF, err := readBenchFile(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	newF, err := readBenchFile(fs.Arg(1))
	if err != nil {
		return 0, err
	}
	return compare(oldF, newF, fs.Arg(0), fs.Arg(1), *tol, *allocTol, *minNS, overrides, stdout), nil
}

func readBenchFile(path string) (*benchsuite.BenchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchsuite.BenchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &f, nil
}

// compare prints a per-benchmark verdict table and returns how many
// benchmarks regressed.
func compare(oldF, newF *benchsuite.BenchFile, oldPath, newPath string, tol, allocTol, minNS float64, overrides tolOverrides, w io.Writer) int {
	fmt.Fprintf(w, "benchcmp %s (%s) -> %s (%s)\n", oldPath, oldF.GitDescribe, newPath, newF.GitDescribe)
	if oldF.NumCPU != newF.NumCPU || oldF.GOMAXPROCS != newF.GOMAXPROCS {
		fmt.Fprintf(w, "WARNING: artifacts recorded on different machines (num_cpu %d vs %d, gomaxprocs %d vs %d); ns/op is not strictly comparable\n",
			oldF.NumCPU, newF.NumCPU, oldF.GOMAXPROCS, newF.GOMAXPROCS)
	}

	oldBy := make(map[string]benchsuite.BenchResult, len(oldF.Benchmarks))
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	newNames := make(map[string]bool, len(newF.Benchmarks))

	regressions := 0
	fmt.Fprintf(w, "%-28s %14s %14s %8s %12s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op", "verdict")
	for _, nb := range newF.Benchmarks {
		newNames[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%-28s %14s %14.0f %8s %12d  new (no baseline)\n", nb.Name, "-", nb.NsPerOp, "-", nb.AllocsPerOp)
			continue
		}
		delta := 0.0
		if ob.NsPerOp > 0 {
			delta = nb.NsPerOp/ob.NsPerOp - 1
		}
		var verdicts []string
		benchTol := overrides.tolFor(nb.Name, tol)
		if ob.NsPerOp >= minNS && delta > benchTol {
			verdicts = append(verdicts, fmt.Sprintf("REGRESSION ns/op +%.0f%% > %.0f%%", 100*delta, 100*benchTol))
		}
		allocLimit := float64(ob.AllocsPerOp)*(1+allocTol) + allocGrace
		if float64(nb.AllocsPerOp) > allocLimit {
			verdicts = append(verdicts, fmt.Sprintf("REGRESSION allocs/op %d > limit %.0f", nb.AllocsPerOp, allocLimit))
		}
		verdict := "ok"
		switch {
		case len(verdicts) > 0:
			regressions++
			verdict = verdicts[0]
			for _, v := range verdicts[1:] {
				verdict += "; " + v
			}
		case delta < -tol/2:
			verdict = fmt.Sprintf("faster (%.0f%%)", 100*delta)
		}
		fmt.Fprintf(w, "%-28s %14.0f %14.0f %+7.1f%% %6d->%-5d  %s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, 100*delta, ob.AllocsPerOp, nb.AllocsPerOp, verdict)
	}
	for _, ob := range oldF.Benchmarks {
		if !newNames[ob.Name] {
			fmt.Fprintf(w, "%-28s %14.0f %14s %8s %12d  removed from suite\n", ob.Name, ob.NsPerOp, "-", "-", ob.AllocsPerOp)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "benchcmp: %d regression(s) beyond tolerance\n", regressions)
	} else {
		fmt.Fprintln(w, "benchcmp: within tolerance")
	}
	return regressions
}

// revision is the -version payload: `git describe --always --dirty`
// when the binary runs inside the repository, "unknown" otherwise.
func revision() string {
	if r := obs.GitDescribe(); r != "" {
		return r
	}
	return "unknown"
}
