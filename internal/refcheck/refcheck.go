// Package refcheck is the repository's standing correctness oracle: a
// collection of deliberately naive, obviously-correct reference
// implementations of the three hand-rolled numerical substrates every
// later optimisation PR touches — the bit-parallel fault simulator, the
// sparse SpMM inference path, and the from-scratch GCN backpropagation —
// together with a seeded randomized differential driver that generates
// small circuitgen netlists and asserts agreement across all
// implementations.
//
// Nothing in this package is fast, and that is the point. Each reference
// is written in the most transparent form available:
//
//   - refsim.go simulates one pattern at a time with plain bools and
//     injects faults by forced re-simulation, cross-checking both the
//     64-way bit-parallel engine (fault.Simulator) and the exact
//     detection criterion (fault.ExactDetectMask);
//   - refmat.go multiplies matrices with dense triple loops, checking
//     the COO/CSR/parallel sparse kernels and their transposes;
//   - refforward.go recomputes the model's inference forward densely,
//     as A·(X·W)+b with COO scatter and triple-loop matmuls, checking
//     the tiled inference pass layer by layer;
//   - gradcheck.go differentiates core.Model losses by central finite
//     differences, layer by layer;
//   - refobs.go enumerates every input assignment of tiny circuits to
//     measure exact observability, validating SCOAP/COP structural
//     invariants and the critical-path-tracing observability criterion
//     on fanout-free logic.
//
// The package is imported only from tests (its own and the fuzz targets
// of the packages it checks); production binaries never pay for it.
package refcheck
