// Command benchjson runs the repository's benchmark suite
// (internal/benchsuite) in-process, via testing.Benchmark, and writes
// the results as a BENCH_NNNN.json artifact — the machine-readable
// performance trajectory this repository tracks PR over PR. Committing
// one file per recorded run lets any future change tell a measured
// before/after story; see docs/OBSERVABILITY.md for the schema and
// workflow. The rows are the suite's entries, in order, under the names
// go test prints for them as BenchmarkSuite/<name>.
//
// Usage:
//
//	benchjson [-out FILE] [-dir DIR] [-bench REGEXP] [-count N] [-counters]
//
// With no -out, the next free BENCH_NNNN.json number in -dir (default
// ".") is chosen. -bench filters benchmarks by name. -count (default 3)
// samples each benchmark several times and records the fastest run, so
// scheduler-steal spikes on shared machines don't land in the artifact;
// an entry that runs for seconds per op (PaperScaleForward) is sampled
// once. -counters enables the internal/obs instrumentation during the
// run and embeds the counter snapshot (e.g. spmm.rows, faultsim.batches)
// in the artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/tensor"
)

func main() {
	out := flag.String("out", "", "output path (default: next free BENCH_NNNN.json in -dir)")
	dir := flag.String("dir", ".", "directory scanned for existing BENCH_NNNN.json files")
	pattern := flag.String("bench", "", "regexp filtering benchmark names (default: all)")
	count := flag.Int("count", 3, "samples per benchmark; the fastest is recorded")
	counters := flag.Bool("counters", true, "enable internal/obs and embed the counter snapshot")
	version := flag.Bool("version", false, "print the build's git revision and exit")
	flag.Parse()
	if *version {
		fmt.Println("benchjson", revision())
		return
	}

	var filter *regexp.Regexp
	if *pattern != "" {
		var err error
		if filter, err = regexp.Compile(*pattern); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -bench regexp:", err)
			os.Exit(2)
		}
	}

	if *counters {
		obs.Reset()
		obs.Enable()
		// Spans would add ReadMemStats pauses inside timed regions; the
		// artifact wants counters only.
		obs.SetAllocSampling(false)
	}

	file := &benchsuite.BenchFile{
		SchemaVersion: 1,
		Name:          "tier1-bench",
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GitDescribe:   obs.GitDescribe(),
		Kernel:        tensor.Kernel(),
	}

	for _, e := range benchsuite.All {
		if filter != nil && !filter.MatchString(e.Name) {
			continue
		}
		samples := *count
		if e.Long {
			samples = 1
		}
		// A matrix row with an explicit pool size sets GOMAXPROCS to that
		// size, capped at NumCPU, for the duration of the measurement
		// (restored after). The cap keeps the per-result gomaxprocs field
		// honest: raising it past the host's cores would record
		// time-slicing as parallelism, and the kernels clamp their
		// workers to min(GOMAXPROCS, NumCPU) anyway.
		restoreProcs := -1
		if e.Workers > 1 {
			restoreProcs = runtime.GOMAXPROCS(min(e.Workers, runtime.NumCPU()))
		}
		fmt.Fprintf(os.Stderr, "running %-40s ", e.Name)
		// Sample several times and keep the fastest run. On a shared
		// container, scheduler steal inflates individual samples by tens
		// of percent; the minimum is the robust estimator of the code's
		// actual cost (a real regression slows every sample, a steal
		// spike only some), so recorded artifacts stay comparable across
		// noisy recording sessions.
		var res benchsuite.BenchResult
		for k := 0; k < samples; k++ {
			sample := result(e.Name, testing.Benchmark(e.Run), e.Workers)
			if k == 0 || sample.NsPerOp < res.NsPerOp {
				res = sample
			}
		}
		if restoreProcs > 0 {
			runtime.GOMAXPROCS(restoreProcs)
		}
		fmt.Fprintf(os.Stderr, "%12.0f ns/op  %d iters  (best of %d)\n", res.NsPerOp, res.Iterations, samples)
		file.Benchmarks = append(file.Benchmarks, res)
	}
	if len(file.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmarks matched")
		os.Exit(1)
	}

	if *counters {
		file.Counters = obs.TakeSnapshot().Counters
	}

	path := *out
	if path == "" {
		var err error
		if path, err = nextBenchPath(*dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(file.Benchmarks))
}

// result turns one testing.Benchmark sample into an artifact row.
// GOMAXPROCS and Workers are read when the sample is taken, so they are
// the values the body ran under; workers is the count the body was
// asked for.
func result(name string, r testing.BenchmarkResult, workers int) benchsuite.BenchResult {
	return benchsuite.BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Seconds:     r.T.Seconds(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     par.Workers(workers),
	}
}

// nextBenchPath returns dir/BENCH_NNNN.json for the smallest NNNN not
// yet taken (starting at 0001).
func nextBenchPath(dir string) (string, error) {
	existing, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	max := 0
	for _, p := range existing {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(p), "BENCH_%d.json", &n); err == nil && n > max {
			max = n
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%04d.json", max+1)), nil
}

// revision is the -version payload: `git describe --always --dirty`
// when the binary runs inside the repository, "unknown" otherwise.
func revision() string {
	if r := obs.GitDescribe(); r != "" {
		return r
	}
	return "unknown"
}
