// Command gcntest is the end-user CLI of the reproduction: it generates
// benchmark netlists, analyzes testability, trains the multi-stage GCN,
// classifies difficult-to-observe nodes, runs the iterative observation
// point insertion flow, and evaluates fault coverage — the full paper
// pipeline over .bench files.
//
// Subcommands:
//
//	gcntest gen    -out design.bench [-gates N] [-seed N] [-funnels N]
//	gcntest stats  design.bench
//	gcntest label  design.bench [-patterns N] [-threshold F] [-seed N]
//	gcntest train  -out model.gob design1.bench design2.bench ...
//	gcntest infer  -model model.gob design.bench
//	gcntest insert -model model.gob -out modified.bench design.bench
//	gcntest eval   design.bench [-patterns N] [-atpg]
//	gcntest bist   design.bench [-patterns N] [-seed N]
//	gcntest cpinsert -out modified.bench design.bench [-epsilon F]
//
// Global flags (before the subcommand):
//
//	gcntest [-manifest out.json] [-trace out.json] [-pprof addr] <subcommand> ...
//
// -manifest enables the observability layer (internal/obs) and writes a
// run manifest when the subcommand finishes; -trace additionally
// records a Chrome Trace Event Format timeline (chrome://tracing /
// Perfetto); -pprof serves net/http/pprof plus the live /metrics
// (Prometheus text) and /snapshot (JSON) endpoints on the given
// address. See docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"repro/internal/bist"
	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opi"
	"repro/internal/scoap"
)

func main() {
	manifest := flag.String("manifest", "", "enable instrumentation and write a run manifest JSON to this path")
	trace := flag.String("trace", "", "enable span tracing and write a Chrome Trace Event JSON to this path")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, /metrics and /snapshot on this address (e.g. localhost:6060)")
	version := flag.Bool("version", false, "print the build's git revision and exit")
	flag.Usage = usage
	flag.Parse()
	if *version {
		fmt.Println("gcntest", revision())
		return
	}
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	if *pprofAddr != "" {
		obs.RegisterHTTP(nil)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "gcntest: pprof server:", err)
			}
		}()
	}
	if *manifest != "" || *trace != "" {
		obs.Enable()
	}
	if *trace != "" {
		obs.EnableTracing()
	}
	var err error
	switch args[0] {
	case "gen":
		err = cmdGen(args[1:])
	case "stats":
		err = cmdStats(args[1:])
	case "label":
		err = cmdLabel(args[1:])
	case "train":
		err = cmdTrain(args[1:])
	case "infer":
		err = cmdInfer(args[1:])
	case "insert":
		err = cmdInsert(args[1:])
	case "eval":
		err = cmdEval(args[1:])
	case "bist":
		err = cmdBist(args[1:])
	case "cpinsert":
		err = cmdCPInsert(args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcntest:", err)
		os.Exit(1)
	}
	if *manifest != "" {
		if werr := obs.WriteManifest(*manifest, "gcntest/"+args[0], map[string]any{
			"subcommand": args[0], "args": args[1:],
		}); werr != nil {
			fmt.Fprintln(os.Stderr, "gcntest:", werr)
			os.Exit(1)
		}
		fmt.Printf("wrote run manifest to %s\n", *manifest)
	}
	if *trace != "" {
		if werr := obs.WriteTrace(*trace); werr != nil {
			fmt.Fprintln(os.Stderr, "gcntest:", werr)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace to %s\n", *trace)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gcntest [-manifest out.json] [-trace out.json] [-pprof addr] <gen|stats|label|train|infer|insert|eval|bist|cpinsert> [flags] [files]`)
	os.Exit(2)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "design.bench", "output netlist path")
	gates := fs.Int("gates", 10000, "approximate logic size")
	seed := fs.Int64("seed", 1, "generator seed")
	funnels := fs.Int("funnels", 0, "shadow funnel count (0 = default)")
	fs.Parse(args)
	n := circuitgen.Generate("generated", circuitgen.Config{
		Seed: *seed, NumGates: *gates, ShadowFunnels: *funnels,
	})
	if err := netlist.WriteFile(*out, n); err != nil {
		return err
	}
	s := n.ComputeStats()
	fmt.Printf("wrote %s: %d gates, %d edges, %d PIs, %d POs, depth %d\n",
		*out, s.Gates, s.Edges, s.PIs, s.POs, s.Depth)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("stats needs one netlist file")
	}
	n, err := netlist.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	s := n.ComputeStats()
	fmt.Printf("design  : %s\ngates   : %d\nedges   : %d\nPIs/POs : %d/%d\nDFFs    : %d\nOPs     : %d\ndepth   : %d\nsparsity: %.4f%%\n",
		n.Name, s.Gates, s.Edges, s.PIs, s.POs, s.DFFs, s.Obs, s.Depth, 100*s.Sparsity)
	m := scoap.Compute(n)
	var worst int32
	var worstCO int32 = -1
	for id := int32(0); id < int32(n.NumGates()); id++ {
		if co := m.CO[id]; co != scoap.Unobservable && co > worstCO {
			worst, worstCO = id, co
		}
	}
	fmt.Printf("worst observability: node %d (CO=%d)\n", worst, worstCO)
	return nil
}

func cmdLabel(args []string) error {
	fs := flag.NewFlagSet("label", flag.ExitOnError)
	patterns := fs.Int("patterns", dataset.DefaultPatterns, "labeling pattern budget")
	threshold := fs.Float64("threshold", dataset.DefaultThreshold, "difficult-to-observe cutoff")
	seed := fs.Int64("seed", 1, "pattern seed")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("label needs one netlist file")
	}
	n, err := netlist.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	counts := fault.ObservabilityCounts(n, *patterns, *seed)
	labels := fault.LabelDifficult(n, counts, *patterns, *threshold)
	pos := 0
	for id, l := range labels {
		if l == 1 {
			pos++
			fmt.Printf("%d\tdifficult\tobserved %d/%d\n", id, counts[id], *patterns)
		}
	}
	fmt.Printf("# %d difficult-to-observe of %d nodes (%.3f%%)\n",
		pos, n.NumGates(), 100*float64(pos)/float64(n.NumGates()))
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "model.gob", "output model path")
	patterns := fs.Int("patterns", dataset.DefaultPatterns, "labeling pattern budget")
	threshold := fs.Float64("threshold", dataset.DefaultThreshold, "difficult-to-observe cutoff")
	epochs := fs.Int("epochs", 80, "training epochs per stage")
	stages := fs.Int("stages", 3, "cascade stages")
	seed := fs.Int64("seed", 1, "training seed")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("train needs at least one netlist file")
	}
	var graphs []*core.Graph
	for _, path := range fs.Args() {
		n, err := netlist.ReadFile(path)
		if err != nil {
			return err
		}
		b := dataset.Label(n.Name, n, *patterns, *threshold, *seed)
		pos, neg := b.Graph.CountLabels()
		fmt.Printf("loaded %s: %d nodes, %d positive, %d negative\n", path, b.Graph.N, pos, neg)
		graphs = append(graphs, b.Graph)
	}
	mopt := core.DefaultMultiStageOptions()
	mopt.NumStages = *stages
	mopt.ModelCfg = core.DefaultConfig()
	mopt.ModelCfg.Seed = *seed
	mopt.Train = core.DefaultTrainOptions()
	mopt.Train.Epochs = *epochs
	mopt.Train.LR = 0.02
	mopt.Progress = func(s, rem, pos int) {
		fmt.Printf("stage %d: %d nodes remain (%d positive)\n", s, rem, pos)
	}
	ms, err := core.TrainMultiStage(graphs, mopt)
	if err != nil {
		return err
	}
	if err := core.SaveCheckpointFile(*out, ms); err != nil {
		return err
	}
	fmt.Printf("saved %d-stage cascade to %s\n", len(ms.Stages), *out)
	return nil
}

// loadModel reads the cascade checkpoint that train writes; a checkpoint
// of a single model is rejected, since infer and insert run the cascade.
func loadModel(path string) (*core.MultiStage, error) {
	pred, err := core.LoadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	ms, ok := pred.(*core.MultiStage)
	if !ok {
		return nil, fmt.Errorf("%s holds a single model, not a multi-stage cascade (write one with gcntest train)", path)
	}
	return ms, nil
}

func cmdInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	model := fs.String("model", "model.gob", "trained cascade path")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("infer needs one netlist file")
	}
	ms, err := loadModel(*model)
	if err != nil {
		return err
	}
	n, err := netlist.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	g := core.FromNetlist(n, scoap.Compute(n))
	pred := ms.Predict(g)
	pos := 0
	for id, p := range pred {
		if p == 1 {
			fmt.Printf("%d\tdifficult\n", id)
			pos++
		}
	}
	fmt.Printf("# %d predicted difficult-to-observe of %d nodes\n", pos, g.N)
	return nil
}

func cmdInsert(args []string) error {
	fs := flag.NewFlagSet("insert", flag.ExitOnError)
	model := fs.String("model", "model.gob", "trained cascade path")
	out := fs.String("out", "modified.bench", "output netlist path")
	perIter := fs.Int("periter", 64, "insertions per iteration")
	maxOPs := fs.Int("maxops", 0, "cap on total observation points (0 = none)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("insert needs one netlist file")
	}
	ms, err := loadModel(*model)
	if err != nil {
		return err
	}
	n, err := netlist.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	meas := scoap.Compute(n)
	g := core.FromNetlist(n, meas)
	res := opi.RunFlow(n, meas, g, ms, opi.FlowConfig{
		PerIteration:  *perIter,
		MaxInsertions: *maxOPs,
		Progress: func(iter, positives, inserted int) {
			fmt.Printf("iteration %d: %d positives, %d OPs so far\n", iter, positives, inserted)
		},
	})
	if err := netlist.WriteFile(*out, n); err != nil {
		return err
	}
	fmt.Printf("inserted %d observation points in %d iterations; wrote %s\n",
		len(res.Targets), res.Iterations, *out)
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	patterns := fs.Int("patterns", 16384, "test pattern budget")
	seed := fs.Int64("seed", 1, "pattern seed")
	atpg := fs.Bool("atpg", false, "top up with deterministic PODEM patterns")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("eval needs one netlist file")
	}
	n, err := netlist.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	tpg := fault.TPGConfig{MaxPatterns: *patterns, Seed: *seed}
	if *atpg {
		res := fault.GenerateTestsWithATPG(n, fault.ATPGConfig{Random: tpg})
		fmt.Printf("observation points : %d\ntest patterns      : %d (deterministic %d)\nfault coverage     : %.2f%%\ntest coverage      : %.2f%% (untestable %d, aborted %d)\n",
			n.CountType(netlist.Obs), res.PatternsUsed, res.DeterministicPatterns,
			100*res.Coverage, 100*res.TestCoverage, res.ProvedUntestable, res.Aborted)
		return nil
	}
	ev := opi.Evaluate(n, tpg)
	fmt.Printf("observation points: %d\ntest patterns     : %d\nfault coverage    : %.2f%%\n",
		ev.OPs, ev.Patterns, 100*ev.Coverage)
	return nil
}

func cmdBist(args []string) error {
	fs := flag.NewFlagSet("bist", flag.ExitOnError)
	patterns := fs.Int("patterns", 4096, "LFSR pattern budget")
	seed := fs.Uint64("seed", 0xACE1, "LFSR seed (nonzero)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("bist needs one netlist file")
	}
	n, err := netlist.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := bist.RunSession(n, bist.SessionConfig{Patterns: *patterns, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("LFSR patterns   : %d\nstuck-at coverage: %.2f%% (%d/%d)\ngolden signature : %016x\n",
		res.Patterns, 100*res.Coverage, res.Detected, res.Total, res.Signature)
	return nil
}

func cmdCPInsert(args []string) error {
	fs := flag.NewFlagSet("cpinsert", flag.ExitOnError)
	out := fs.String("out", "modified.bench", "output netlist path")
	epsilon := fs.Float64("epsilon", 0.01, "signal probability band")
	perRound := fs.Int("perround", 32, "insertions per round")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("cpinsert needs one netlist file")
	}
	n, err := netlist.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	res := opi.ControllabilityGreedy(n, opi.CPFlowConfig{Epsilon: *epsilon, PerRound: *perRound})
	if err := netlist.WriteFile(*out, res.Netlist); err != nil {
		return err
	}
	fmt.Printf("inserted %d CP0 and %d CP1 control points in %d rounds; wrote %s\n",
		res.CP0s, res.CP1s, res.Rounds, *out)
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
