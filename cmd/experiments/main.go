// Command experiments regenerates the paper's tables and figures on the
// synthetic benchmark suite.
//
// Usage:
//
//	experiments [-size N] [-patterns N] [-epochs N] [-seed N] [-quick]
//	            [-run LIST] [-manifest out.json] [-trace out.json] [-pprof addr]
//
// -run selects a comma-separated subset of
// table1,fig8,table2,fig9,fig10,table3 (default: all). Three heavier
// studies are opt-in only: ablation (cascade depth), coarsen (the
// internal/coarsen ratio/F1/speed grid) and coarserefine (the
// exact-vs-coarse-refine OPI head-to-head on the circuitgen.OPIBench
// design at -size gates, 0 for its 50k preset, generated and trained
// with -seed).
//
// -manifest enables the observability layer (internal/obs) and writes a
// run manifest — span tree, counters, environment — to the given path
// when all selected experiments finish; see docs/OBSERVABILITY.md.
//
// -trace additionally records every span occurrence and event and
// writes a Chrome Trace Event Format JSON loadable in chrome://tracing
// or Perfetto (one timeline row per training worker).
//
// -pprof serves net/http/pprof plus the live /metrics (Prometheus text)
// and /snapshot (JSON) endpoints on the given address (e.g.
// "localhost:6060") for profiling and scraping long runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the experiment driver; split from main so the manifest
// smoke test can exercise the full flag-to-file path in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	size := fs.Int("size", 0, "approximate gates per benchmark design (0 = default)")
	patterns := fs.Int("patterns", 0, "labeling pattern budget (0 = default)")
	epochs := fs.Int("epochs", 0, "GCN training epochs (0 = default)")
	seed := fs.Int64("seed", 42, "global seed")
	quick := fs.Bool("quick", false, "shrink everything for a fast smoke run")
	runSel := fs.String("run", "all", "comma-separated experiments: table1,fig8,table2,fig9,fig10,table3,ablation,coarsen,coarserefine (ablation, coarsen and coarserefine are opt-in, not part of all)")
	manifest := fs.String("manifest", "", "enable instrumentation and write a run manifest JSON to this path")
	trace := fs.String("trace", "", "enable span tracing and write a Chrome Trace Event JSON to this path")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof, /metrics and /snapshot on this address (e.g. localhost:6060)")
	version := fs.Bool("version", false, "print the build's git revision and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, "experiments", revision())
		return nil
	}

	if *pprofAddr != "" {
		obs.RegisterHTTP(nil)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof server:", err)
			}
		}()
	}
	if *manifest != "" || *trace != "" {
		obs.Enable()
	}
	if *trace != "" {
		obs.EnableTracing()
	}

	cfg := experiments.Config{
		Size: *size, Patterns: *patterns, Epochs: *epochs, Seed: *seed, Quick: *quick,
	}

	want := map[string]bool{}
	if *runSel == "all" {
		for _, k := range []string{"table1", "fig8", "table2", "fig9", "fig10", "table3"} {
			want[k] = true
		}
	} else {
		for _, k := range strings.Split(*runSel, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}

	step := func(name string, f func()) {
		if !want[name] {
			return
		}
		start := time.Now()
		fmt.Fprintf(stdout, "=== %s ===\n", name)
		f()
		fmt.Fprintf(stdout, "(%s took %.1fs)\n\n", name, time.Since(start).Seconds())
	}

	step("table1", func() { r := experiments.Table1(cfg); r.Fprint(stdout) })
	step("fig8", func() { r := experiments.Fig8(cfg); r.Fprint(stdout) })
	step("table2", func() { r := experiments.Table2(cfg); r.Fprint(stdout) })
	step("fig9", func() { r := experiments.Fig9(cfg); r.Fprint(stdout) })
	step("fig10", func() { r := experiments.Fig10(cfg); r.Fprint(stdout) })
	step("table3", func() { r := experiments.Table3(cfg); r.Fprint(stdout) })
	step("ablation", func() { r := experiments.StageAblation(cfg, 4); r.Fprint(stdout) })
	step("coarsen", func() { r := experiments.CoarsenGrid(cfg); r.Fprint(stdout) })
	step("coarserefine", func() { r := experiments.CompareCoarseRefine(cfg); r.Fprint(stdout) })

	if *manifest != "" {
		if err := obs.WriteManifest(*manifest, "experiments", map[string]any{
			"size": *size, "patterns": *patterns, "epochs": *epochs,
			"seed": *seed, "quick": *quick, "run": *runSel,
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote run manifest to %s\n", *manifest)
	}
	if *trace != "" {
		if err := obs.WriteTrace(*trace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote Chrome trace to %s\n", *trace)
	}
	return nil
}

// revision is the -version payload: `git describe --always --dirty`
// when the binary runs inside the repository, "unknown" otherwise.
func revision() string {
	if r := obs.GitDescribe(); r != "" {
		return r
	}
	return "unknown"
}
