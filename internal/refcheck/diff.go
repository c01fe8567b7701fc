package refcheck

import (
	"fmt"
	"math/rand"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/scoap"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// This file is the randomized differential driver: it generates small
// circuitgen netlists from a seed and pushes each through every
// fault-simulation and sparse-matmul implementation in the repository,
// failing loudly on the first disagreement. Tests and fuzz targets call
// these entry points; check.sh runs them on every merge.

// MatTolerance bounds the acceptable relative difference between the
// dense reference and the sparse kernels (different summation orders in
// float64; anything above this is a real bug, not rounding).
const MatTolerance = 1e-9

// RandomConfigs derives count varied small-circuit configurations from
// seed, sweeping gate count, depth, fanin width, XOR/DFF density,
// reconvergence probability and shadow-funnel count so the differential
// run exercises scan boundaries, wide gates and reconvergent fanout
// alike.
func RandomConfigs(seed int64, count int) []circuitgen.Config {
	rng := rand.New(rand.NewSource(seed))
	dffFracs := []float64{-1, 0.05, 0.15, 0.30, 0.50}
	out := make([]circuitgen.Config, count)
	for i := range out {
		out[i] = circuitgen.Config{
			Seed:          rng.Int63(),
			NumGates:      40 + rng.Intn(160),
			NumPIs:        6 + rng.Intn(18),
			Layers:        4 + rng.Intn(8),
			MaxFanin:      2 + rng.Intn(3),
			LongRangeProb: 0.05 + 0.25*rng.Float64(),
			XorFrac:       0.10 + 0.40*rng.Float64(),
			DFFFrac:       dffFracs[rng.Intn(len(dffFracs))],
			ShadowFunnels: rng.Intn(3) - 1, // -1 disables, 0 picks the default
			ShadowDepth:   1 + rng.Intn(3),
		}
	}
	return out
}

// CheckFaultSim drives one 64-pattern batch (derived from seed) through
// the serial reference, the bit-parallel engine and the exact detection
// criterion, and returns an error describing the first disagreement:
//
//   - every value word of Simulator.BatchFrom must match the 64 serial
//     single-pattern simulations lane for lane;
//   - for a stride sample of up to maxFaults fault sites (both stuck-at
//     polarities), Simulator.BatchWithFault must match the serial
//     faulty re-simulation, and fault.ExactDetectMask must match the
//     serial sink-difference mask.
func CheckFaultSim(n *netlist.Netlist, seed int64, maxFaults int) error {
	words := BatchSourceWords(n, seed, 0)
	src := func(id int32) uint64 { return words[id] }

	sim := fault.NewSimulator(n)
	sim.BatchFrom(src)
	batchVals := append([]uint64(nil), sim.Values()...)
	serialVals := SerialValueWords(n, words)
	for id := range serialVals {
		if batchVals[id] != serialVals[id] {
			return fmt.Errorf("value mismatch at cell %d (%s): batch %016x serial %016x",
				id, n.Type(int32(id)), batchVals[id], serialVals[id])
		}
	}

	for _, node := range faultSites(n, maxFaults) {
		for _, sa1 := range []bool{false, true} {
			sim.BatchWithFault(src, node, sa1)
			faultyBatch := append([]uint64(nil), sim.Values()...)
			faultySerial := SerialFaultValueWords(n, words, node, sa1)
			for id := range faultySerial {
				if faultyBatch[id] != faultySerial[id] {
					return fmt.Errorf("faulty value mismatch (fault %d sa%v) at cell %d: batch %016x serial %016x",
						node, sa1, id, faultyBatch[id], faultySerial[id])
				}
			}
			serialMask := SerialDetectMask(n, words, node, sa1)
			exactMask := fault.ExactDetectMask(n, seed, 0, node, sa1)
			if serialMask != exactMask {
				return fmt.Errorf("detect mask mismatch (fault %d sa%v): exact %016x serial %016x",
					node, sa1, exactMask, serialMask)
			}
		}
	}
	return nil
}

// faultSites is the stride sample of up to maxFaults fault sites the
// fault-simulation checks visit. Sinks are skipped: forcing a sink's own
// output is unobservable by construction.
func faultSites(n *netlist.Netlist, maxFaults int) []int32 {
	if maxFaults < 1 {
		maxFaults = 1
	}
	stride := n.NumGates() / maxFaults
	if stride < 1 {
		stride = 1
	}
	var out []int32
	for node := int32(0); node < int32(n.NumGates()); node += int32(stride) {
		if t := n.Type(node); t != netlist.Output && t != netlist.Obs {
			out = append(out, node)
		}
	}
	return out
}

// CPTAgreement compares the critical-path-tracing detection criterion
// (CPTDetectMask over one bit-parallel batch derived from seed) with
// exact fault injection (fault.ExactDetectMask on the same patterns) at
// the faultSites sample, both stuck-at polarities. A fault counts as
// compared when CPT claims at least one detecting pattern, and as
// agreeing when every claimed pattern really detects it. CPT merges
// fanout branches with OR, so under reconvergent fanout it can claim a
// detection that exact injection refutes; this measures how often.
func CPTAgreement(n *netlist.Netlist, seed int64, maxFaults int) (agree, compared int) {
	words := BatchSourceWords(n, seed, 0)
	sim := fault.NewSimulator(n)
	sim.BatchFrom(func(id int32) uint64 { return words[id] })
	vals := append([]uint64(nil), sim.Values()...)
	obsWords := append([]uint64(nil), sim.Obs()...)
	for _, node := range faultSites(n, maxFaults) {
		for _, sa1 := range []bool{false, true} {
			claimed := CPTDetectMask(vals, obsWords, node, sa1)
			if claimed == 0 {
				continue
			}
			compared++
			if claimed&^fault.ExactDetectMask(n, seed, 0, node, sa1) == 0 {
				agree++
			}
		}
	}
	return agree, compared
}

// CheckSparseOps multiplies a COO matrix (and its CSR conversion,
// parallel kernel, transpose product and transpose) against the dense
// triple-loop reference with a random right-hand side drawn from rng,
// returning an error on any divergence beyond MatTolerance.
func CheckSparseOps(coo *sparse.COO, cols int, rng *rand.Rand) error {
	ref := DenseOfCOO(coo)
	x := tensor.NewDense(coo.NumCols, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := MatMulRef(ref, x)

	got := tensor.NewDense(coo.NumRows, cols)
	coo.MulDense(got, x)
	if d := MaxRelDiff(got, want); d > MatTolerance {
		return fmt.Errorf("COO MulDense diverges from dense reference by %g", d)
	}

	csr := coo.ToCSR()
	if csr.NNZ() > coo.NNZ() {
		return fmt.Errorf("CSR conversion grew NNZ: %d > %d", csr.NNZ(), coo.NNZ())
	}
	if d := MaxRelDiff(csr.ToDense(), ref); d > MatTolerance {
		return fmt.Errorf("CSR ToDense diverges from COO materialization by %g", d)
	}
	csr.MulDense(got, x)
	if d := MaxRelDiff(got, want); d > MatTolerance {
		return fmt.Errorf("CSR MulDense diverges from dense reference by %g", d)
	}
	for _, workers := range []int{2, 3, 7} {
		csr.MulDenseParallel(got, x, workers)
		if d := MaxRelDiff(got, want); d > MatTolerance {
			return fmt.Errorf("CSR MulDenseParallel(%d workers) diverges by %g", workers, d)
		}
	}

	xt := tensor.NewDense(coo.NumRows, cols)
	for i := range xt.Data {
		xt.Data[i] = rng.NormFloat64()
	}
	wantT := MatMulRef(TransposeRef(ref), xt)
	gotT := tensor.NewDense(coo.NumCols, cols)
	csr.MulDenseTrans(gotT, xt)
	if d := MaxRelDiff(gotT, wantT); d > MatTolerance {
		return fmt.Errorf("CSR MulDenseTrans diverges from dense reference by %g", d)
	}
	if d := MaxRelDiff(csr.Transpose().ToDense(), TransposeRef(ref)); d > MatTolerance {
		return fmt.Errorf("CSR Transpose diverges from dense reference by %g", d)
	}

	// Float32 kernels: within f32 tolerance of the dense reference, and
	// the parallel kernel bit-identical to the serial f32 one.
	x32 := tensor.Convert[float32](x)
	got32 := tensor.New[float32](coo.NumRows, cols)
	sparse.Mul(csr, got32, x32, 1)
	if d := MaxRelDiff(got32.ToDense(), want); d > F32Tolerance {
		return fmt.Errorf("CSR float32 Mul diverges from dense reference by %g", d)
	}
	par32 := tensor.New[float32](coo.NumRows, cols)
	for _, workers := range []int{2, 5} {
		sparse.Mul(csr, par32, x32, workers)
		for i, v := range par32.Data {
			if v != got32.Data[i] {
				return fmt.Errorf("CSR float32 Mul(%d workers) not bit-identical to serial f32 at %d", workers, i)
			}
		}
	}
	return nil
}

// CheckNetlistMatmul builds the GCN adjacency of a netlist (the COO
// matrix production inference multiplies every step) and validates all
// sparse kernels over it via CheckSparseOps.
func CheckNetlistMatmul(n *netlist.Netlist, seed int64) error {
	g := core.FromNetlist(n, scoap.Compute(n))
	rng := rand.New(rand.NewSource(seed))
	return CheckSparseOps(g.PredCOO(), 3, rng)
}
