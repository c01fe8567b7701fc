// Command perfbench is the end-to-end serving benchmark: it starts the real
// internal/serve stack on a loopback listener inside its own process, drives
// it from closed-loop clients, checks every answer against the library, and
// prints one JSON result line.
//
//	bash perfbench/run.sh --workload score-cold --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	score-cold  1 client, POST /v1/score, every design never seen before
//	edit-delta  2 clients, POST /v1/score/delta chains on cached designs
//	opi-flow    2 clients, POST /v1/opi with fault-simulated coverage
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that replays the same requests through the library's public
// functions, timing each layer from this package (nothing inside the
// program is instrumented), and reports the per-layer metrics.
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// The line before it is a record of the environment, the server options,
// the design sizes, the model digest and every measured value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: score-cold, edit-delta or opi-flow")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	// Time-slicing on fewer cores than GOMAXPROCS would be recorded as
	// parallelism; refuse rather than report it.
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		fmt.Fprintf(stderr, "perfbench: GOMAXPROCS=%d exceeds num_cpu=%d; refusing to run\n", p, n)
		return 2
	}
	cfg := config{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Sizes: fullSizes}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// writeResult prints the record line and then the result line.
func writeResult(w io.Writer, res *result) error {
	rec, err := json.Marshal(map[string]any{"record": res.Record})
	if err != nil {
		return err
	}
	metrics := make(map[string]metricValue, len(res.Metrics))
	for _, m := range res.Metrics {
		metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(resultLine{
		Correct:   res.Correct,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, line)
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
