package fault

import (
	"math/bits"
	"math/rand"

	"repro/internal/netlist"
	// Aliased: this file's hot loops bind `obs` to the simulator's
	// observability words.
	obspkg "repro/internal/obs"
)

// SAFault is a single stuck-at fault on a cell's output net.
type SAFault struct {
	Node     int32
	StuckAt1 bool
}

// FaultUniverse enumerates the stuck-at fault list: both polarities on
// every cell output except pure sinks (whose input net faults are already
// represented by their drivers).
func FaultUniverse(n *netlist.Netlist) []SAFault {
	var faults []SAFault
	for id := int32(0); id < int32(n.NumGates()); id++ {
		switch n.Type(id) {
		case netlist.Output, netlist.Obs:
			continue
		}
		faults = append(faults, SAFault{Node: id, StuckAt1: false}, SAFault{Node: id, StuckAt1: true})
	}
	return faults
}

// TPGConfig controls random-pattern test generation with fault dropping.
type TPGConfig struct {
	// MaxPatterns is the simulation budget (rounded up to 64-pattern
	// words); default 16384.
	MaxPatterns int
	// TargetCoverage stops generation early once reached (fraction of the
	// fault universe); 0 disables.
	TargetCoverage float64
	// StallWords aborts after this many consecutive 64-pattern words with
	// no new detection; default 32.
	StallWords int
	// Seed drives the pattern source.
	Seed int64
}

func (c TPGConfig) withDefaults() TPGConfig {
	if c.MaxPatterns <= 0 {
		c.MaxPatterns = 16384
	}
	if c.StallWords <= 0 {
		c.StallWords = 32
	}
	return c
}

// TPGResult reports test generation outcomes: the metrics compared in
// Table 3.
type TPGResult struct {
	TotalFaults       int
	Detected          int
	Coverage          float64 // Detected / TotalFaults
	PatternsUsed      int     // patterns that first-detected ≥1 fault (#PAs)
	PatternsSimulated int
	UndetectedSample  []SAFault // up to 16 survivors, for diagnostics
}

// GenerateTests runs bit-parallel random-pattern fault simulation with
// fault dropping: each 64-pattern word is simulated once (values +
// observabilities), every live fault is checked against the word, and a
// fault is dropped at its first detection. A pattern is counted as "used"
// — the paper's test pattern count — when it is the earliest pattern
// detecting some previously undetected fault.
//
// Detection uses the sensitized-path criterion: pattern p detects s-a-0
// at node v when v's fault-free value is 1 under p and v is observable
// under p; symmetrically for s-a-1.
func GenerateTests(n *netlist.Netlist, cfg TPGConfig) TPGResult {
	span := obspkg.StartSpan("tpg")
	defer span.End()
	cfg = cfg.withDefaults()
	sim := NewSimulator(n)
	rng := rand.New(rand.NewSource(cfg.Seed))

	faults := FaultUniverse(n)
	live := make([]SAFault, len(faults))
	copy(live, faults)

	res := TPGResult{TotalFaults: len(faults)}
	usedPatterns := make(map[int]struct{})
	words := (cfg.MaxPatterns-1)/WordSize + 1 // ceil without overflowing a huge budget
	stall := 0
	for w := 0; w < words && len(live) > 0; w++ {
		sim.Batch(rng)
		res.PatternsSimulated += WordSize
		vals, obs := sim.Values(), sim.Obs()

		detectedThisWord := 0
		kept := live[:0]
		for _, f := range live {
			mask := obs[f.Node]
			if f.StuckAt1 {
				mask &= ^vals[f.Node]
			} else {
				mask &= vals[f.Node]
			}
			if mask == 0 {
				kept = append(kept, f)
				continue
			}
			detectedThisWord++
			first := bits.TrailingZeros64(mask)
			usedPatterns[w*WordSize+first] = struct{}{}
		}
		live = kept
		res.Detected = res.TotalFaults - len(live)

		if detectedThisWord == 0 {
			stall++
			if stall >= cfg.StallWords {
				break
			}
		} else {
			stall = 0
		}
		if cfg.TargetCoverage > 0 &&
			float64(res.Detected) >= cfg.TargetCoverage*float64(res.TotalFaults) {
			break
		}
	}
	res.Coverage = float64(res.Detected) / float64(max(1, res.TotalFaults))
	res.PatternsUsed = len(usedPatterns)
	for i := 0; i < len(live) && i < 16; i++ {
		res.UndetectedSample = append(res.UndetectedSample, live[i])
	}
	return res
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
