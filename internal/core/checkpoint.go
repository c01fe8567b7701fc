package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// This file is the exported weights-checkpoint format: a self-describing
// gob envelope that records what kind of predictor was saved (a single
// Model or a MultiStage cascade) together with its architecture and
// parameter values, so that a serving process (cmd/serve) can restore a
// trained predictor without knowing anything about how it was trained.
// It is the only weights format: `gcntest train` writes it, and
// `gcntest infer`/`insert` and cmd/serve read it.

const (
	// checkpointMagic identifies the self-describing checkpoint envelope;
	// streams without it are rejected.
	checkpointMagic = "repro/gcn-checkpoint"
	// checkpointVersion is the current envelope version; readers reject
	// versions they do not know.
	checkpointVersion = 1
)

// checkpointWire is the gob envelope shared by both predictor kinds. A
// single Model is stored as a one-stage cascade with Kind "model".
type checkpointWire struct {
	Magic       string
	Version     int
	Kind        string // "model" | "multistage"
	Cfg         Config
	FilterBelow float64
	ParamNames  []string
	StageParams [][][]float64 // [stage][param][values]
}

// SaveCheckpoint writes pred — a *Model or a *MultiStage — to w in the
// self-describing checkpoint format understood by LoadCheckpoint.
// Predictors of any other dynamic type are rejected.
func SaveCheckpoint(w io.Writer, pred IncrementalPredictor) error {
	wire := checkpointWire{Magic: checkpointMagic, Version: checkpointVersion}
	switch p := pred.(type) {
	case *Model:
		wire.Kind = "model"
		wire.Cfg = p.Cfg
		wire.ParamNames, wire.StageParams = paramValues([]*Model{p})
	case *MultiStage:
		if len(p.Stages) == 0 {
			return fmt.Errorf("core: cannot checkpoint empty cascade")
		}
		wire.Kind = "multistage"
		wire.Cfg = p.Stages[0].Cfg
		wire.FilterBelow = p.FilterBelow
		wire.ParamNames, wire.StageParams = paramValues(p.Stages)
	default:
		return fmt.Errorf("core: cannot checkpoint predictor of type %T", pred)
	}
	return gob.NewEncoder(w).Encode(wire)
}

// SaveCheckpointFile writes pred to path via SaveCheckpoint, creating or
// truncating the file.
func SaveCheckpointFile(path string, pred IncrementalPredictor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveCheckpoint(f, pred); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCheckpoint restores a predictor saved with SaveCheckpoint. The
// returned value is a *Model or a *MultiStage depending on what was
// saved; both satisfy IncrementalPredictor (and opi.Predictor).
func LoadCheckpoint(r io.Reader) (IncrementalPredictor, error) {
	var wire checkpointWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: checkpoint decode: %w", err)
	}
	if wire.Magic != checkpointMagic {
		return nil, fmt.Errorf("core: not a checkpoint (magic %q)", wire.Magic)
	}
	if wire.Version > checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d newer than supported %d",
			wire.Version, checkpointVersion)
	}
	switch wire.Kind {
	case "model":
		if len(wire.StageParams) != 1 {
			return nil, fmt.Errorf("core: model checkpoint with %d stages", len(wire.StageParams))
		}
		return modelFromParams(wire.Cfg, wire.StageParams[0], 0)
	case "multistage":
		ms := &MultiStage{FilterBelow: wire.FilterBelow}
		for si, ps := range wire.StageParams {
			m, err := modelFromParams(wire.Cfg, ps, si)
			if err != nil {
				return nil, err
			}
			ms.Stages = append(ms.Stages, m)
		}
		if len(ms.Stages) == 0 {
			return nil, fmt.Errorf("core: multistage checkpoint with no stages")
		}
		return ms, nil
	default:
		return nil, fmt.Errorf("core: unknown checkpoint kind %q", wire.Kind)
	}
}

// LoadCheckpointFile restores a predictor from a file written by
// SaveCheckpointFile.
func LoadCheckpointFile(path string) (IncrementalPredictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pred, err := LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pred, nil
}

// paramValues flattens the trainable parameters of a stage list into the
// wire layout, recording the parameter names of the first stage for
// diagnostics.
func paramValues(stages []*Model) (names []string, values [][][]float64) {
	for _, p := range stages[0].Params() {
		names = append(names, p.Name)
	}
	for _, s := range stages {
		var ps [][]float64
		for _, p := range s.Params() {
			ps = append(ps, p.Data)
		}
		values = append(values, ps)
	}
	return names, values
}

// modelFromParams builds a model with cfg's architecture and fills its
// parameters from the stored flat values, validating shapes.
func modelFromParams(cfg Config, ps [][]float64, stage int) (*Model, error) {
	m, err := NewModel(cfg)
	if err != nil {
		return nil, err
	}
	params := m.Params()
	if len(params) != len(ps) {
		return nil, fmt.Errorf("core: stage %d has %d params, stored %d", stage, len(params), len(ps))
	}
	for i, p := range params {
		if len(p.Data) != len(ps[i]) {
			return nil, fmt.Errorf("core: stage %d param %q size %d != stored %d",
				stage, p.Name, len(p.Data), len(ps[i]))
		}
		copy(p.Data, ps[i])
	}
	return m, nil
}
