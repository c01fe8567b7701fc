package refcheck

import (
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/scoap"
)

// TestForwardMatchesDenseOracle checks whole-graph inference against the
// dense A·(X·W)+b oracle on the 60 seeded circuits (single-tile graphs)
// and on three circuits that span many row tiles.
func TestForwardMatchesDenseOracle(t *testing.T) {
	configs := RandomConfigs(77, 60)
	for _, gates := range []int{2000, 3500, 5000} {
		configs = append(configs, circuitgen.Config{Seed: int64(gates), NumGates: gates})
	}
	for i, cfg := range configs {
		n := circuitgen.Generate("oracle", cfg)
		if err := CheckNetlistForward(n, int64(500+i)); err != nil {
			t.Errorf("circuit %d (%d cells): %v", i, n.NumGates(), err)
		}
	}
}

// TestForwardOracleCatchesCorruption makes sure the oracle has teeth: a
// predecessor weight off by one part in a million must be caught.
func TestForwardOracleCatchesCorruption(t *testing.T) {
	n := circuitgen.Generate("teeth", circuitgen.Config{Seed: 9, NumGates: 300})
	g := core.FromNetlist(n, scoap.Compute(n))
	m := core.MustNewModel(core.DefaultConfig())
	st := m.ForwardFull(g)
	m.Wpr.Data[0] *= 1 + 1e-6
	embeds, _ := RefForward(m, g)
	if MaxRelDiff(st.Embeddings()[1], embeds[1]) <= MatTolerance {
		t.Fatal("a perturbed wpr went unnoticed by the dense oracle")
	}
}
