// Package benchsuite is the repository's benchmark suite: every body
// that cmd/benchjson records into a BENCH_NNNN.json artifact, declared
// once. The root bench_test.go runs the same entries under go test as
// BenchmarkSuite/<Name>, so a go test sub-benchmark and the BENCH row of
// the same name time the same code. The artifact schema lives here too,
// for cmd/benchjson to write and cmd/benchcmp to read.
package benchsuite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opi"
	"repro/internal/scoap"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Bench is one suite entry, and one BENCH row.
type Bench struct {
	// Name is the BENCH row name and the sub-benchmark name under
	// BenchmarkSuite.
	Name string
	// Run is the body. It must not call testing.Short: cmd/benchjson
	// runs it through testing.Benchmark, outside go test.
	Run func(*testing.B)
	// Workers is the worker count a matrix row asks its kernels for;
	// 0 means all cores, which is what every row outside the matrix
	// runs with.
	Workers int
	// Long marks a body that runs for seconds per op: cmd/benchjson
	// samples it once, and go test -short skips it.
	Long bool
}

// All is the suite, in BENCH row order. Training-heavy figure and table
// regenerations (Fig. 8, Table 2, Fig. 9, Table 3) are not in it: they
// run for minutes, so they stay go test-only benchmarks in
// bench_test.go.
var All = []Bench{
	{Name: "Table1DatasetGeneration", Run: table1},
	{Name: "Fig10MatrixInference", Run: fig10Matrix},
	{Name: "Fig10MatrixInferenceF32", Run: fig10MatrixF32},
	{Name: "Fig10RecursiveInference", Run: fig10Recursive},
	{Name: "PaperScaleForward", Run: paperScaleForward, Long: true},
	{Name: "AblationCOOMul", Run: cooMul},
	{Name: "AblationCSRMul", Run: csrMul},
	{Name: "AblationCSRMul32", Run: csrMul32},
	{Name: "AblationSpMMParallel", Run: spmmParallel},
	spmm50k(1),
	spmm50k(4),
	spmm50k(0),
	{Name: "AblationIncrementalSCOAP", Run: incrementalSCOAP},
	{Name: "AblationFullSCOAPRecompute", Run: fullSCOAPRecompute},
	{Name: "AblationFaultSimulation", Run: faultSimulation},
	{Name: "OPIFlowFull", Run: func(b *testing.B) { opiFlow(b, true) }},
	{Name: "OPIFlowIncremental", Run: func(b *testing.B) { opiFlow(b, false) }},
	{Name: "OPIFlowCoarseRefine", Run: opiFlowCoarseRefine},
	{Name: "CoarsenBuild", Run: coarsenBuild},
	{Name: "CoarsenFineForward", Run: coarsenFineForward},
	{Name: "CoarsenCoarseForward", Run: coarsenCoarseForward},
	{Name: "ServeScoreBatched", Run: func(b *testing.B) { serveScore(b, true) }},
	{Name: "ServeScoreSerial", Run: func(b *testing.B) { serveScore(b, false) }},
	{Name: "ObsHistogramObserve", Run: obsHistogramObserve},
}

// table1 regenerates the benchmark suite and its statistics (Table 1)
// at the quick scale.
func table1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Table1(experiments.Config{Quick: true, Seed: int64(100 + i)})
	}
}

// fig10 is the Figure 10 mid-size point, a 20k-gate design, shared by
// the three Fig10 rows. Generation plus SCOAP is paid once per process.
var fig10 = sync.OnceValue(func() *core.Graph {
	n := circuitgen.Generate("f10", circuitgen.Config{Seed: 1, NumGates: 20000})
	return core.FromNetlist(n, scoap.Compute(n))
})

// fig10Matrix times full-graph matrix inference at the Figure 10
// mid-size point.
func fig10Matrix(b *testing.B) {
	forward(b, core.MustNewModel(core.DefaultConfig()), fig10())
}

// fig10MatrixF32 scores the same point through the float32 scoring call,
// which narrows the weights on every call; the delta against
// Fig10MatrixInference is the end-to-end payoff of precision narrowing
// on the recording host.
func fig10MatrixF32(b *testing.B) {
	g, m := fig10(), core.MustNewModel(core.DefaultConfig())
	m.PredictProbs32(g) // build the CSRs once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictProbs32(g)
	}
}

// fig10Recursive times the prior-work recursion [12] per node at the
// same point; multiply by N for the full-graph cost the figure plots.
func fig10Recursive(b *testing.B) {
	g, m := fig10(), core.MustNewModel(core.DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InferNodeRecursive(g, int32(rng.Intn(g.N)))
	}
}

// paperScale is the ≥1M-cell instance. Generation plus SCOAP takes tens
// of seconds, so it is paid once per process.
var paperScale = sync.OnceValue(func() *core.Graph {
	n := circuitgen.Generate("m1", circuitgen.PaperScale(1))
	return core.FromNetlist(n, scoap.Compute(n))
})

// paperScaleForward is whole-graph matrix inference at the paper's
// largest reported scale (Table 1 / the right edge of Figure 10): one
// full forward over ≥1M cells, seconds per op.
func paperScaleForward(b *testing.B) {
	forward(b, core.MustNewModel(core.DefaultConfig()), paperScale())
}

// spmmOperands is the SpMM ablations' operand pair: a design's
// predecessor adjacency (in g) and a seeded 32-column Gaussian block, in
// both precisions (the float32 block is the float64 one narrowed).
type spmmOperands struct {
	g   *core.Graph
	x   *tensor.Dense
	x32 *tensor.Dense32
}

// ab1 holds the operands over a 20k-gate design, built once per process.
var ab1 = sync.OnceValue(func() *spmmOperands {
	n := circuitgen.Generate("ab1", circuitgen.Config{Seed: 3, NumGates: 20000})
	g := core.FromNetlist(n, scoap.Compute(n))
	x := tensor.NewDense(g.N, 32)
	rng := rand.New(rand.NewSource(1))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return &spmmOperands{g: g, x: x, x32: tensor.Convert[float32](x)}
})

// cooMul and csrMul quantify the COO→CSR conversion payoff for the SpMM
// at the heart of inference (DESIGN.md decision 2).
func cooMul(b *testing.B) {
	w := ab1()
	coo, dst := w.g.Pred().ToCOO(), tensor.NewDense(w.g.N, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coo.MulDense(dst, w.x)
	}
}

func csrMul(b *testing.B) {
	w := ab1()
	csr, dst := w.g.Pred(), tensor.NewDense(w.g.N, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MulDense(dst, w.x)
	}
}

// csrMul32 is the float32 twin of csrMul: identical adjacency and block
// through the narrowed SpMM kernel (DESIGN.md decision 10). The f64/f32
// delta is the memory-bandwidth saving of halving the dense operand.
func csrMul32(b *testing.B) {
	w := ab1()
	csr, dst := w.g.Pred(), tensor.New[float32](w.g.N, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.Mul(csr, dst, w.x32, 1)
	}
}

// spmmParallel measures the goroutine-parallel SpMM (the multi-GPU
// stand-in) on a random 100k×100k operator with 300k entries.
func spmmParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	coo := sparse.NewCOO(100000, 100000)
	for i := 0; i < 300000; i++ {
		coo.Append(int32(rng.Intn(100000)), int32(rng.Intn(100000)), 1)
	}
	csr := coo.ToCSR()
	x := tensor.NewDense(100000, 16)
	dst := tensor.NewDense(100000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MulDenseParallel(dst, x, 0)
	}
}

// spmm50k is one point of the worker matrix: the nnz-balanced parallel
// SpMM over the 50k-gate OPI fixture's adjacency times a 32-column
// block. The kernel clamps its workers to min(GOMAXPROCS, NumCPU), so a
// point beyond the host's cores measures the clamped execution, and the
// row's workers field says so. workers 0 is the numcpu point.
func spmm50k(workers int) Bench {
	label := fmt.Sprint(workers)
	if workers == 0 {
		label = "numcpu"
	}
	return Bench{Name: "AblationSpMM50k/workers=" + label, Workers: workers, Run: func(b *testing.B) {
		g := opiBench().g
		csr := g.Pred()
		x := tensor.NewDense(g.N, 32)
		rng := rand.New(rand.NewSource(7))
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		dst := tensor.NewDense(g.N, 32)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			csr.MulDenseParallel(dst, x, workers)
		}
	}}
}

// incrementalSCOAP and fullSCOAPRecompute compare the incremental
// observability update against a full recompute after one insertion
// (DESIGN.md's incremental-update decision; Section 4 of the paper).
// Each incremental iteration inserts and relaxes a fresh observation
// point at a cell not yet observed, drawn in a seeded order; every 256
// insertions the netlist and measures are cloned afresh off the clock.
func incrementalSCOAP(b *testing.B) {
	base := circuitgen.Generate("ab2", circuitgen.Config{Seed: 4, NumGates: 20000})
	baseMeas := scoap.Compute(base)
	var cands []int32
	for _, v := range rand.New(rand.NewSource(4)).Perm(base.NumGates()) {
		if typ := base.Type(int32(v)); typ != netlist.Input && typ != netlist.Output {
			cands = append(cands, int32(v))
		}
	}
	var n *netlist.Netlist
	var m *scoap.Measures
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			b.StopTimer()
			n, m = base.Clone(), baseMeas.Clone()
			b.StartTimer()
		}
		op, err := n.InsertObservationPoint(cands[i%len(cands)])
		if err != nil {
			b.Fatal(err)
		}
		m.UpdateAfterObservationPoint(n, op)
	}
}

func fullSCOAPRecompute(b *testing.B) {
	n := circuitgen.Generate("ab2", circuitgen.Config{Seed: 4, NumGates: 20000})
	if _, err := n.InsertObservationPoint(int32(n.NumGates() / 3)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoap.Compute(n)
	}
}

// faultSimulation measures the 64-way bit-parallel simulation batch that
// underlies labeling and Table 3 scoring.
func faultSimulation(b *testing.B) {
	n := circuitgen.Generate("ab3", circuitgen.Config{Seed: 5, NumGates: 50000})
	sim := fault.NewSimulator(n)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Batch(rng)
	}
}

// opiWorkload is the insertion-flow workload shared by the OPI flow,
// coarsening and 50k SpMM rows: the 50k-gate circuitgen.OPIBench design,
// an (untrained, deterministic) paper-architecture GCN, and the
// 99.5th-percentile threshold placing ~0.5% of fine nodes positive.
type opiWorkload struct {
	n     *netlist.Netlist
	meas  *scoap.Measures
	g     *core.Graph
	model *core.Model
	thr   float64
}

// opiBench builds the workload once per process: generation plus SCOAP
// takes seconds and must not be paid per benchmark.
var opiBench = sync.OnceValue(func() *opiWorkload {
	n := circuitgen.Generate("opif", circuitgen.OPIBench(0))
	meas := scoap.Compute(n)
	g := core.FromNetlist(n, meas)
	model := core.MustNewModel(core.DefaultConfig())
	return &opiWorkload{n: n, meas: meas, g: g, model: model, thr: percentile995(model.PredictProbs(g))}
})

// percentile995 is the 99.5th percentile of probs.
func percentile995(probs []float64) float64 {
	probs = append([]float64(nil), probs...)
	sort.Float64s(probs)
	return probs[int(0.995*float64(len(probs)-1))]
}

// opiFlow runs the insertion-flow pair on the shared workload. A few
// insertions per round over many rounds is the regime the incremental
// path is built for: the D-hop neighborhood of each round's insertions
// stays small relative to the design, while the full variant scores
// through core.FullPass and pays whole-graph inference every round — the
// flow as the paper's Figure 7 literally states it. The incremental
// variant pays full inference once and feeds each round's dirty set into
// the cached-embedding update (Section 3.4's efficiency argument applied
// to the Section 4 loop). Both run the identical predict→rank→insert
// work; only the inference strategy differs, which is exactly the
// quantity the pair measures.
func opiFlow(b *testing.B, full bool) {
	w := opiBench()
	var pred core.IncrementalPredictor = w.model
	if full {
		pred = core.FullPass(w.model.PredictProbs)
	}
	cfg := opi.FlowConfig{
		Threshold:     w.thr,
		PerIteration:  2,
		MaxIterations: 16,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fn, fm, fg := w.n.Clone(), w.meas.Clone(), w.g.Clone()
		b.StartTimer()
		opi.RunFlow(fn, fm, fg, pred, cfg)
	}
}

// opiFlowCoarseRefine is the coarse-then-refine flow on the identical
// workload and per-round schedule as the pair above: region scoring on
// the FFR-0.25 supergraph, exact impact ranking and SCOAP refresh on the
// fine netlist. The timed region includes building the coarsening — the
// flow's real entry cost — so the delta against OPIFlowIncremental is
// the end-to-end payoff of predicting on ~¼ of the nodes. The threshold
// is the same 99.5th percentile, taken over the coarse score
// distribution (max-aggregated features shift it), so both flows start
// with comparable positive fractions.
func opiFlowCoarseRefine(b *testing.B) {
	w := opiBench()
	const ratio = 0.25
	c, err := coarsen.New(w.n, ratio)
	if err != nil {
		b.Fatal(err)
	}
	cfg := opi.CoarseRefineConfig{
		Ratio: ratio,
		Flow: opi.FlowConfig{
			Threshold:     percentile995(w.model.PredictProbs(c.ProjectGraph(w.g))),
			PerIteration:  2,
			MaxIterations: 16,
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fn, fm, fg := w.n.Clone(), w.meas.Clone(), w.g.Clone()
		b.StartTimer()
		if _, err := opi.RunCoarseRefine(fn, fm, fg, w.model, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// coarsenBuild is the one-time cost of clustering the 50k design into
// FFR supernodes — the entry fee every coarse-graph consumer pays once
// per design.
func coarsenBuild(b *testing.B) {
	w := opiBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coarsen.New(w.n, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

// coarsenFineForward and coarsenCoarseForward time one whole-graph
// forward pass on the 50k design and on its FFR-0.25 projection — the
// per-inference saving that the coarse-then-refine flow banks every
// iteration.
func coarsenFineForward(b *testing.B) {
	w := opiBench()
	forward(b, w.model, w.g)
}

func coarsenCoarseForward(b *testing.B) {
	w := opiBench()
	c, err := coarsen.New(w.n, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	forward(b, w.model, c.ProjectGraph(w.g))
}

// forward times m.Forward(g) after one untimed pass, which builds the
// CSRs and the retained scratch.
func forward(b *testing.B, m *core.Model, g *core.Graph) {
	m.Forward(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(g)
	}
}

// serveScore measures the serving layer's concurrent-score path. Each
// iteration plays one burst of fanout concurrent /v1/score requests for
// a previously-unseen 30k-gate design (a unique leading comment line
// defeats the design cache across iterations, so every burst pays a
// cold compile). With batching the burst coalesces into a single
// parse→SCOAP→forward; the serial variant, with batching and caching
// disabled, pays one per request. The pair is the measured basis for
// the ≥2× batched-throughput claim in docs/SERVING.md.
func serveScore(b *testing.B, batched bool) {
	// fanout is enough concurrent clients to make coalescing matter, and
	// few enough that the serial variant is not dominated by queueing.
	const fanout = 6
	n := circuitgen.Generate("srv", circuitgen.Config{Seed: 11, NumGates: 30000})
	var buf bytes.Buffer
	if err := netlist.Write(&buf, n); err != nil {
		b.Fatal(err)
	}
	base := buf.String()

	opts := serve.Options{
		Predictor:     core.MustNewModel(core.DefaultConfig()),
		MaxConcurrent: fanout,
		MaxQueue:      fanout,
		CacheEntries:  2, // bound memory: each entry holds a 30k-node graph + embeddings
	}
	if !batched {
		opts.DisableBatching = true
		opts.CacheEntries = -1
	}
	srv, err := serve.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body, err := json.Marshal(serve.ScoreRequest{Netlist: fmt.Sprintf("# iter%d\n%s", i, base)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var wg sync.WaitGroup
		errs := make(chan error, fanout)
		for r := 0; r < fanout; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
}

// obsHistogramObserve measures the quantile sketch's hot path: one
// enabled Observe including the log-linear bucket-index computation that
// /snapshot p50/p95/p99 and the /metrics buckets are derived from. Every
// serving latency sample pays this cost.
func obsHistogramObserve(b *testing.B) {
	wasEnabled := obs.Enabled()
	obs.Enable()
	h := obs.GetHistogram("bench.quantile_sketch")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe((int64(i) * 2654435761) & (1<<30 - 1))
	}
	b.StopTimer()
	if !wasEnabled {
		obs.Disable()
	}
}
