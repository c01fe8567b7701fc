package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/scoap"
)

// Fig10Point is one graph size's inference runtime under both schemes.
type Fig10Point struct {
	Nodes int
	// MatrixSeconds is the measured full-graph matrix-inference time.
	MatrixSeconds float64
	// RecursiveSeconds is the full-graph recursion-based time ([12]),
	// estimated from a node sample when Sampled is true (the method is
	// embarrassingly per-node, so per-node cost × N is exact in
	// expectation — running all nodes at the largest sizes is precisely
	// the pathology the figure demonstrates).
	RecursiveSeconds float64
	Sampled          bool
	Speedup          float64
}

// recursionSample is how many nodes the recursion baseline is timed on
// per graph size.
const recursionSample = 512

// Fig10Result is the scalability sweep.
type Fig10Result struct {
	Points []Fig10Point
}

// Fig10 reproduces the inference-scalability comparison: graphs from 10³
// to 10⁵ nodes by default (10⁶ reachable via cfg.Size), timed under the
// sparse matrix formulation and under naive per-node recursion.
func Fig10(cfg Config) Fig10Result {
	span := obs.StartSpan("experiments/fig10")
	defer span.End()
	cfg = cfg.withDefaults()
	sizes := []int{1000, 3000, 10000, 30000, 100000}
	if cfg.Quick {
		sizes = []int{1000, 3000, 10000}
	}
	model := core.MustNewModel(cfg.modelConfig(3, cfg.Seed+1))

	// The paper times inference with trained D=3 weights, so fit the
	// model briefly on one labeled design first. Weights do not change
	// the runtime being measured; the budget is capped well below the
	// accuracy experiments' so the sweep still dominates.
	trainEpochs := cfg.Epochs
	if trainEpochs > 20 {
		trainEpochs = 20
	}
	trainPatterns := cfg.Patterns
	if trainPatterns > 1024 {
		trainPatterns = 1024
	}
	bench := dataset.Label("fig10-train", circuitgen.Generate("fig10-train", circuitgen.Config{
		Seed: cfg.Seed + 7, NumGates: sizes[0],
	}), trainPatterns, dataset.DefaultThreshold, cfg.Seed+7)
	topt := cfg.trainOptions()
	topt.Epochs = trainEpochs
	if _, err := core.Train(model, []*core.Graph{bench.Graph}, nil, topt); err != nil {
		panic(err) // unreachable: one well-formed graph with matching labels
	}

	var res Fig10Result
	for _, size := range sizes {
		n := circuitgen.Generate(fmt.Sprintf("scale%d", size), circuitgen.Config{
			Seed: cfg.Seed + int64(size), NumGates: size,
		})
		m := scoap.Compute(n)
		g := core.FromNetlist(n, m)

		// Warm up once, then take the best of three matrix passes to
		// suppress allocator noise.
		model.Forward(g)
		matrixSec := 1e18
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			model.Forward(g)
			if s := time.Since(start).Seconds(); s < matrixSec {
				matrixSec = s
			}
		}

		// Recursion: time a fixed sample of recursionSample distinct
		// nodes (every node when the graph is smaller) three times, and
		// scale the median to the full graph (every node is classified
		// independently). The sample is large and fixed so the column
		// does not hang on which few nodes one draw picks, and the median
		// drops a repeat that a collection or a neighbour slowed.
		nodes := make([]int32, 0, recursionSample)
		for _, v := range rand.New(rand.NewSource(cfg.Seed + 99)).Perm(g.N) {
			if len(nodes) == recursionSample {
				break
			}
			nodes = append(nodes, int32(v))
		}
		var reps [3]float64
		for i := range reps {
			start := time.Now()
			model.InferRecursive(g, nodes)
			reps[i] = time.Since(start).Seconds()
		}
		sort.Float64s(reps[:])
		recSec := reps[1] / float64(len(nodes)) * float64(g.N)

		res.Points = append(res.Points, Fig10Point{
			Nodes:            g.N,
			MatrixSeconds:    matrixSec,
			RecursiveSeconds: recSec,
			Sampled:          len(nodes) < g.N,
			Speedup:          recSec / matrixSec,
		})
	}
	return res
}

// Fprint writes the sweep (the figure's two series).
func (r Fig10Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: Inference runtime, recursion [12] vs. matrix formulation (ours)")
	fmt.Fprintf(w, "%10s %16s %16s %10s\n", "#nodes", "recursion (s)", "matrix (s)", "speedup")
	for _, p := range r.Points {
		note := ""
		if p.Sampled {
			note = " (recursion extrapolated from node sample)"
		}
		fmt.Fprintf(w, "%10d %16.4f %16.4f %9.0fx%s\n",
			p.Nodes, p.RecursiveSeconds, p.MatrixSeconds, p.Speedup, note)
	}
}
