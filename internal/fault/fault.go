// Package fault is the reproduction's stand-in for the commercial DFT
// tool the paper relies on for three things: ground-truth labels
// (difficult-to-observe nodes), fault coverage, and test pattern counts.
//
// It implements 64-way bit-parallel logic simulation over random
// patterns, backward bitwise observability propagation (critical-path
// tracing style: a net is observable under a pattern when some sensitized
// path reaches a primary output, scan flip-flop or observation point;
// fanout branches merge with OR), a stuck-at fault universe over gate
// outputs, and random-pattern test generation with fault dropping.
//
// All of Table 1 (#POS/#NEG labels), Table 3 (#OPs / #patterns /
// coverage) and the labeling behind Table 2 and Figures 8–9 are produced
// by this package, so the GCN flow and the industrial-tool baseline are
// always scored by the same simulator.
package fault

import (
	"math/bits"
	"math/rand"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// Simulation metrics (no-ops until obs.Enable; see
// docs/OBSERVABILITY.md).
var (
	faultsimBatches  = obs.GetCounter("faultsim.batches")
	faultsimPatterns = obs.GetCounter("faultsim.patterns")
	faultsimGateEval = obs.GetCounter("faultsim.gate_evals")
)

// WordSize is the number of patterns simulated per machine word.
const WordSize = 64

// Simulator performs bit-parallel logic simulation and observability
// analysis over batches of 64 random patterns.
type Simulator struct {
	n     *netlist.Netlist
	order []int32
	vals  []uint64 // value word per cell output
	obs   []uint64 // observability word per cell output
	// suffix is propagateControlled's per-gate scratch, grown to the
	// widest gate seen, so a batch allocates nothing.
	suffix []uint64
}

// NewSimulator prepares a simulator for the netlist. The netlist may be
// mutated (observation points added) between batches as long as
// Refresh is called afterwards.
func NewSimulator(n *netlist.Netlist) *Simulator {
	s := &Simulator{n: n}
	s.Refresh()
	return s
}

// Refresh re-reads the netlist structure after a mutation.
func (s *Simulator) Refresh() {
	s.order = s.n.TopoOrder()
	if len(s.vals) < s.n.NumGates() {
		s.vals = make([]uint64, s.n.NumGates())
		s.obs = make([]uint64, s.n.NumGates())
	}
}

// Values returns the value words of the last batch (indexed by cell ID).
func (s *Simulator) Values() []uint64 { return s.vals[:s.n.NumGates()] }

// Obs returns the observability words of the last batch.
func (s *Simulator) Obs() []uint64 { return s.obs[:s.n.NumGates()] }

// Batch simulates one batch of 64 random patterns drawn from rng: a
// forward value pass followed by a backward observability pass. Primary
// inputs and scan flip-flop outputs receive independent random words
// (full-scan random test).
func (s *Simulator) Batch(rng *rand.Rand) {
	s.BatchFrom(func(int32) uint64 { return rng.Uint64() })
}

// BatchFrom simulates one 64-pattern batch whose source words (per
// primary input / scan flip-flop) come from the given function; used to
// replay deterministic (e.g. PODEM-generated) patterns through the
// bit-parallel engine.
func (s *Simulator) BatchFrom(source func(id int32) uint64) {
	faultsimBatches.Inc()
	faultsimPatterns.Add(WordSize)
	faultsimGateEval.Add(int64(len(s.order)))
	n := s.n
	vals, obs := s.vals, s.obs
	for _, id := range s.order {
		g := n.Gate(id)
		switch g.Type {
		case netlist.Input, netlist.DFF:
			vals[id] = source(id)
		case netlist.Output, netlist.Obs, netlist.Buf:
			vals[id] = vals[g.Fanin[0]]
		case netlist.Not:
			vals[id] = ^vals[g.Fanin[0]]
		case netlist.And, netlist.Nand:
			v := vals[g.Fanin[0]]
			for _, f := range g.Fanin[1:] {
				v &= vals[f]
			}
			if g.Type == netlist.Nand {
				v = ^v
			}
			vals[id] = v
		case netlist.Or, netlist.Nor:
			v := vals[g.Fanin[0]]
			for _, f := range g.Fanin[1:] {
				v |= vals[f]
			}
			if g.Type == netlist.Nor {
				v = ^v
			}
			vals[id] = v
		case netlist.Xor, netlist.Xnor:
			v := vals[g.Fanin[0]]
			for _, f := range g.Fanin[1:] {
				v ^= vals[f]
			}
			if g.Type == netlist.Xnor {
				v = ^v
			}
			vals[id] = v
		}
	}

	// Backward observability.
	for i := range obs[:n.NumGates()] {
		obs[i] = 0
	}
	for i := len(s.order) - 1; i >= 0; i-- {
		id := s.order[i]
		g := n.Gate(id)
		switch g.Type {
		case netlist.Output, netlist.Obs:
			obs[id] = ^uint64(0)
			obs[g.Fanin[0]] = ^uint64(0)
			continue
		case netlist.DFF:
			// Scan capture observes the data input every pattern.
			obs[g.Fanin[0]] = ^uint64(0)
			continue
		case netlist.Input:
			continue
		}
		o := obs[id]
		if o == 0 {
			continue
		}
		switch g.Type {
		case netlist.Buf, netlist.Not:
			obs[g.Fanin[0]] |= o
		case netlist.And, netlist.Nand:
			s.propagateControlled(g, o, true)
		case netlist.Or, netlist.Nor:
			s.propagateControlled(g, o, false)
		case netlist.Xor, netlist.Xnor:
			for _, f := range g.Fanin {
				obs[f] |= o
			}
		}
	}
}

// propagateControlled handles AND/NAND (nonControlling true: other inputs
// must be 1) and OR/NOR (other inputs must be 0).
func (s *Simulator) propagateControlled(g *netlist.Gate, o uint64, andLike bool) {
	fi := g.Fanin
	if len(fi) == 1 {
		s.obs[fi[0]] |= o
		return
	}
	// prefix[i] = AND of sides of inputs < i, suffix likewise; avoids
	// O(k²) for wide gates.
	side := func(f int32) uint64 {
		v := s.vals[f]
		if andLike {
			return v
		}
		return ^v
	}
	var prefix uint64 = ^uint64(0)
	if len(s.suffix) < len(fi) {
		s.suffix = make([]uint64, len(fi))
	}
	suffixes := s.suffix[:len(fi)]
	acc := ^uint64(0)
	for i := len(fi) - 1; i >= 0; i-- {
		suffixes[i] = acc
		acc &= side(fi[i])
	}
	for i, f := range fi {
		mask := prefix & suffixes[i]
		s.obs[f] |= o & mask
		prefix &= side(f)
	}
}

// ObservabilityCounts simulates numPatterns random patterns (rounded up
// to whole 64-pattern words) and returns, per cell, how many patterns
// observed the cell's output.
func ObservabilityCounts(n *netlist.Netlist, numPatterns int, seed int64) []int {
	span := obs.StartSpan("faultsim")
	defer span.End()
	s := NewSimulator(n)
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, n.NumGates())
	words := (numPatterns + WordSize - 1) / WordSize
	for w := 0; w < words; w++ {
		s.Batch(rng)
		for id, o := range s.Obs() {
			counts[id] += bits.OnesCount64(o)
		}
	}
	return counts
}

// LabelDifficult converts observability counts to the paper's binary
// labels: a node is difficult-to-observe (label 1) when it was observed
// in fewer than threshold×numPatterns patterns. Sink cells (primary
// outputs, observation points) and primary inputs are labeled 0 — they
// are not insertion candidates.
func LabelDifficult(n *netlist.Netlist, counts []int, numPatterns int, threshold float64) []int {
	labels := make([]int, n.NumGates())
	cut := threshold * float64(numPatterns)
	for id := range labels {
		switch n.Type(int32(id)) {
		case netlist.Output, netlist.Obs, netlist.Input:
			labels[id] = 0
			continue
		}
		if float64(counts[id]) < cut {
			labels[id] = 1
		}
	}
	return labels
}
