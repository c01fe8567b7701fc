package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// MultiStage is the paper's cascade for extreme class imbalance (Section
// 3.3): each stage is a GCN trained with a large positive class weight so
// that it only dares to discard negatives it is very confident about; the
// surviving (much more balanced) nodes flow to the next stage, and the
// final stage makes the ultimate call.
type MultiStage struct {
	Stages []*Model
	// FilterBelow is the positive-probability threshold under which a
	// non-final stage declares a node negative and removes it.
	FilterBelow float64
}

// MultiStageOptions configures cascade training.
type MultiStageOptions struct {
	// NumStages is the cascade length; the paper uses 3.
	NumStages int
	// PosWeights holds the positive class weight per stage, largest
	// first; len must equal NumStages. Nil selects a geometric ramp-down
	// from the observed imbalance.
	PosWeights []float64
	// FilterBelow is the confident-negative threshold (default 0.25).
	FilterBelow float64
	// Train holds the per-stage training options (PosWeight is
	// overridden per stage).
	Train TrainOptions
	// ModelCfg is the architecture for every stage.
	ModelCfg Config
	// Progress, when non-nil, receives per-stage summaries.
	Progress func(stage int, remaining, positives int)
}

// DefaultMultiStageOptions mirrors the paper's 3-stage setup.
func DefaultMultiStageOptions() MultiStageOptions {
	return MultiStageOptions{
		NumStages:   3,
		FilterBelow: 0.25,
		Train:       DefaultTrainOptions(),
		ModelCfg:    DefaultConfig(),
	}
}

// TrainMultiStage fits a cascade on the given graphs using each graph's
// own Labels (-1 entries are ignored throughout).
func TrainMultiStage(graphs []*Graph, opt MultiStageOptions) (*MultiStage, error) {
	if opt.NumStages <= 0 {
		opt.NumStages = 3
	}
	if opt.FilterBelow <= 0 {
		opt.FilterBelow = 0.25
	}
	weights := opt.PosWeights
	if weights != nil && len(weights) != opt.NumStages {
		return nil, fmt.Errorf("core: %d stage weights for %d stages", len(weights), opt.NumStages)
	}

	ms := &MultiStage{FilterBelow: opt.FilterBelow}
	// active[gi][v] is whether node v of graph gi is still undecided.
	active := make([][]bool, len(graphs))
	for gi, g := range graphs {
		active[gi] = make([]bool, g.N)
		for v, l := range g.Labels {
			active[gi][v] = l >= 0
		}
	}

	for s := 0; s < opt.NumStages; s++ {
		labelSets := make([][]int, len(graphs))
		remaining, positives := 0, 0
		for gi, g := range graphs {
			ls := make([]int, g.N)
			for v := range ls {
				if active[gi][v] {
					ls[v] = g.Labels[v]
					remaining++
					if g.Labels[v] == 1 {
						positives++
					}
				} else {
					ls[v] = -1
				}
			}
			labelSets[gi] = ls
		}
		if opt.Progress != nil {
			opt.Progress(s, remaining, positives)
		}
		if remaining == 0 {
			break
		}

		cfg := opt.ModelCfg
		cfg.Seed = opt.ModelCfg.Seed + int64(s)*7919
		model, err := NewModel(cfg)
		if err != nil {
			return nil, err
		}
		topt := opt.Train
		if weights != nil {
			topt.PosWeight = weights[s]
		} else {
			// Track the imbalance that actually remains at this stage so
			// every stage (including the last) trains roughly balanced.
			topt.PosWeight = stageWeight(remaining, positives)
		}
		stageStart := time.Now()
		hist, err := Train(model, graphs, labelSets, topt)
		if err != nil {
			return nil, err
		}
		ms.Stages = append(ms.Stages, model)
		if obs.Enabled() {
			finalLoss := 0.0
			if len(hist) > 0 {
				finalLoss = hist[len(hist)-1]
			}
			obs.Event("train.stage",
				obs.I("stage", int64(s)),
				obs.I("remaining", int64(remaining)),
				obs.I("positives", int64(positives)),
				obs.F("pos_weight", topt.PosWeight),
				obs.F("final_loss", finalLoss),
				obs.F("wall_ms", float64(time.Since(stageStart).Nanoseconds())/1e6))
		}

		if s == opt.NumStages-1 {
			break
		}
		// Filter out confident negatives before the next stage.
		for gi, g := range graphs {
			probs := model.Predict(g)
			for v := range active[gi] {
				if active[gi][v] && probs[v] < opt.FilterBelow {
					active[gi][v] = false
				}
			}
		}
	}
	return ms, nil
}

// stageWeight derives a positive class weight from the imbalance left at
// the current stage, clamped to a sane range.
func stageWeight(remaining, positives int) float64 {
	if positives == 0 {
		return 1
	}
	ratio := float64(remaining-positives) / float64(positives)
	if ratio < 1.5 {
		ratio = 1.5
	}
	if ratio > 64 {
		ratio = 64
	}
	return ratio
}

// Clone returns a cascade with the same filter threshold and per-stage
// architecture, with copied parameter values.
func (ms *MultiStage) Clone() *MultiStage {
	c := &MultiStage{FilterBelow: ms.FilterBelow}
	for _, s := range ms.Stages {
		c.Stages = append(c.Stages, s.Clone())
	}
	return c
}

// Predict runs the cascade on a graph: every non-final stage removes the
// nodes it is confident are negative, and the final stage classifies the
// survivors at the usual 0.5 threshold. Returns a 0/1 label per node.
func (ms *MultiStage) Predict(g *Graph) []int {
	out := make([]int, g.N)
	activeList := make([]bool, g.N)
	for i := range activeList {
		activeList[i] = true
	}
	for s, model := range ms.Stages {
		probs := model.Predict(g)
		final := s == len(ms.Stages)-1
		for v := range activeList {
			if !activeList[v] {
				continue
			}
			switch {
			case !final && probs[v] < ms.FilterBelow:
				activeList[v] = false
				out[v] = 0
			case final:
				if probs[v] >= 0.5 {
					out[v] = 1
				}
			}
		}
	}
	return out
}

// PredictProbs returns a per-node positive probability from the cascade:
// nodes filtered at stage s get the (low) probability assigned by that
// stage, survivors get the final stage's probability.
func (ms *MultiStage) PredictProbs(g *Graph) []float64 {
	return ms.cascade(g, (*Model).Predict)
}

// PredictProbs32 is PredictProbs with every stage scored by its float32
// call (Model.PredictProbs32); the cascade decision is the same.
func (ms *MultiStage) PredictProbs32(g *Graph) []float64 {
	return ms.cascade(g, (*Model).PredictProbs32)
}

// cascade scores g with every stage through score and combines the
// stages' probabilities per node with cascadeProb.
func (ms *MultiStage) cascade(g *Graph, score func(*Model, *Graph) []float64) []float64 {
	stageProbs := make([][]float64, len(ms.Stages))
	for s, model := range ms.Stages {
		stageProbs[s] = score(model, g)
	}
	out := make([]float64, g.N)
	for v := range out {
		out[v] = ms.cascadeProb(stageProbs, v)
	}
	return out
}
