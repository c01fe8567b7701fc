package benchsuite

// BenchResult is one row of a BENCH_NNNN.json artifact: one suite
// entry's measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Seconds     float64 `json:"seconds_total"`
	// GOMAXPROCS at measurement time. The parallel kernels and the
	// latency-histogram-affecting serving benchmarks scale with it, so
	// each result records the value it actually ran under (the header
	// value only describes process start).
	GOMAXPROCS int `json:"gomaxprocs"`
	// Workers is the parallelism the benchmark's kernels actually ran
	// with, par.Workers of the requested count: a /workers=T matrix row
	// records T clamped to min(GOMAXPROCS, NumCPU), so workers=4 on a
	// 2-CPU host records 2, and every other benchmark (and the "numcpu"
	// variant) records min(GOMAXPROCS, NumCPU). Artifacts from different
	// machines thus stay self-describing for all results.
	Workers int `json:"workers"`
}

// BenchFile is the serialized artifact: environment identification plus
// one entry per benchmark, and optionally the obs counter snapshot.
// cmd/benchjson writes it and cmd/benchcmp reads it.
type BenchFile struct {
	SchemaVersion int              `json:"schema_version"`
	Name          string           `json:"name"`
	CreatedAt     string           `json:"created_at"`
	GoVersion     string           `json:"go_version"`
	GOOS          string           `json:"goos"`
	GOARCH        string           `json:"goarch"`
	NumCPU        int              `json:"num_cpu"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	GitDescribe   string           `json:"git_describe,omitempty"`
	Benchmarks    []BenchResult    `json:"benchmarks"`
	Counters      map[string]int64 `json:"counters,omitempty"`
}
