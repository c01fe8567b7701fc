package refcheck

import (
	"math/rand"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/fault"
	"repro/internal/sparse"
)

// TestDifferentialFaultSimAndMatmul is the acceptance gate of the
// verification harness: ≥50 seeded random circuits, each pushed through
// serial-vs-batch-vs-exact fault simulation and dense-vs-sparse matmul,
// with zero disagreements tolerated.
func TestDifferentialFaultSimAndMatmul(t *testing.T) {
	const circuits = 60
	configs := RandomConfigs(42, circuits)
	for i, cfg := range configs {
		n := circuitgen.Generate("diff", cfg)
		if err := n.Validate(); err != nil {
			t.Fatalf("circuit %d: invalid netlist: %v", i, err)
		}
		if err := CheckFaultSim(n, int64(1000+i), 12); err != nil {
			t.Errorf("circuit %d (gates=%d dff=%.2f): fault sim: %v", i, n.NumGates(), cfg.DFFFrac, err)
		}
		if err := CheckNetlistMatmul(n, int64(2000+i)); err != nil {
			t.Errorf("circuit %d (gates=%d): matmul: %v", i, n.NumGates(), err)
		}
	}
}

// TestDifferentialWideGates runs the fault-simulation differential on
// circuits whose multi-input gates take up to 8 inputs; FuzzBatchSim's
// decoder builds only 2-input gates.
func TestDifferentialWideGates(t *testing.T) {
	for i, cfg := range RandomConfigs(43, 12) {
		cfg.MaxFanin = 8
		n := circuitgen.Generate("wide", cfg)
		if err := CheckFaultSim(n, int64(3000+i), 12); err != nil {
			t.Errorf("circuit %d (gates=%d): fault sim: %v", i, n.NumGates(), err)
		}
	}
}

// TestDifferentialSecondBatch replays a later batch index to confirm the
// exact-detection replay convention (re-drawing earlier batches) stays
// aligned with the reference word generator.
func TestDifferentialSecondBatch(t *testing.T) {
	n := circuitgen.Generate("b", circuitgen.Config{Seed: 5, NumGates: 80, NumPIs: 10})
	words0 := BatchSourceWords(n, 7, 0)
	words2 := BatchSourceWords(n, 7, 2)
	same := true
	for id, w := range words0 {
		if words2[id] != w {
			same = false
		}
	}
	if same {
		t.Fatal("batch 2 reproduced batch 0 words — replay convention broken")
	}
	// The serial detect mask for batch 2 must still match the exact
	// engine, which re-derives the same words internally.
	for node := int32(0); node < int32(n.NumGates()); node += 17 {
		for _, sa1 := range []bool{false, true} {
			serial := SerialDetectMask(n, words2, node, sa1)
			exact := fault.ExactDetectMask(n, 7, 2, node, sa1)
			if serial != exact {
				t.Fatalf("batch 2 fault %d sa%v: exact %016x serial %016x", node, sa1, exact, serial)
			}
		}
	}
}

// TestCheckSparseOpsCatchesCorruption makes sure the differential
// matmul check actually has teeth: a deliberately corrupted CSR-style
// duplicate entry must be caught.
func TestCheckSparseOpsCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coo := sparse.NewCOO(4, 4)
	coo.Append(0, 1, 1)
	coo.Append(2, 3, 2)
	coo.Append(2, 3, -0.5) // duplicate: must be summed by every kernel
	if err := CheckSparseOps(coo, 2, rng); err != nil {
		t.Fatalf("healthy COO flagged: %v", err)
	}
	// Corrupt after conversion-consistency is established: a dense
	// reference built from different values must diverge.
	bad := coo.Clone()
	bad.Vals[0] = 3
	ref := DenseOfCOO(coo)
	badRef := DenseOfCOO(bad)
	if MaxRelDiff(ref, badRef) <= MatTolerance {
		t.Fatal("corruption invisible to MaxRelDiff")
	}
}
