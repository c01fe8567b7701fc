package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// TestCoarseRefineDesignFollowsSeed: -run coarserefine builds its design
// from the Config, so two seeds reach two different designs and one seed
// reaches the same design twice.
func TestCoarseRefineDesignFollowsSeed(t *testing.T) {
	text := func(seed int64) string {
		var buf bytes.Buffer
		if err := netlist.Write(&buf, coarseRefineDesign(Config{Size: 300, Seed: seed})); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := text(42), text(43)
	if a == b {
		t.Fatal("seeds 42 and 43 generated the same design")
	}
	if again := text(42); again != a {
		t.Fatal("seed 42 generated two different designs")
	}
}

// TestRetentionUndefinedWithoutExactGain: when the exact flow gained
// nothing (or lost coverage) retention has no denominator, and the
// reports say "n/a" instead of a ratio.
func TestRetentionUndefinedWithoutExactGain(t *testing.T) {
	for _, exact := range []float64{0.95, 0.94} { // zero, then negative gain
		c := CoarseRefineComparison{BaseCov: 0.95, ExactCov: exact, CoarseCov: 0.96}
		if r, ok := c.Retention(); ok {
			t.Errorf("exact gain %+.2f: retention %v reported as defined", c.ExactGain(), r)
		}
		var buf bytes.Buffer
		c.Fprint(&buf)
		if !strings.Contains(buf.String(), "retention n/a") {
			t.Errorf("exact gain %+.2f: report lacks \"retention n/a\":\n%s", c.ExactGain(), buf.String())
		}

		grid := CoarsenResult{FineNodes: 10, BaseCoverage: 0.95, ExactCoverage: exact,
			Rows: []CoarsenRow{{Ratio: 0.5, SuperNodes: 6, Coverage: 0.96}}}
		if r, ok := grid.Retention(grid.Rows[0]); ok {
			t.Errorf("grid, exact gain %+.2f: retention %v reported as defined", grid.ExactGain(), r)
		}
		buf.Reset()
		grid.Fprint(&buf)
		if !strings.Contains(buf.String(), "n/a") {
			t.Errorf("grid, exact gain %+.2f: report lacks n/a:\n%s", grid.ExactGain(), buf.String())
		}
	}

	c := CoarseRefineComparison{BaseCov: 0.90, ExactCov: 0.92, CoarseCov: 0.93}
	if r, ok := c.Retention(); !ok || r < 1.49 || r > 1.51 {
		t.Errorf("retention = %v, %v; want 1.5, true", r, ok)
	}
}

// TestCoarseRefineTimingReport: the speedup is the ratio of the two
// flows' median timed runs, and each flow's row prints its median wall
// time and the range of its runs, whatever order the runs came in.
func TestCoarseRefineTimingReport(t *testing.T) {
	c := CoarseRefineComparison{
		ExactNS:  [flowRepeats]int64{9e6, 2e6, 3e6},
		CoarseNS: [flowRepeats]int64{1e6, 5e6, 2e6},
	}
	if got := c.Speedup(); got != 1.5 {
		t.Errorf("speedup %v, want 1.5 (3 ms / 2 ms)", got)
	}
	var buf bytes.Buffer
	c.Fprint(&buf)
	rows := map[string][]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 3 {
			rows[f[0]] = f[2:4]
		}
	}
	for flow, want := range map[string][]string{"exact-incremental": {"3", "2-9"}, "coarse-refine": {"2", "1-5"}} {
		if got := rows[flow]; !slices.Equal(got, want) {
			t.Errorf("%s row: Wall(ms) and min-max(ms) %q, want %q\n%s", flow, got, want, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "speedup 1.50x") {
		t.Errorf("report lacks \"speedup 1.50x\":\n%s", buf.String())
	}
}

// TestRepeatedFlowsMustPickSameTargets: a timed repeat that picked other
// targets than the first run stops the comparison.
func TestRepeatedFlowsMustPickSameTargets(t *testing.T) {
	requireSameTargets("exact", []int32{4, 7}, []int32{4, 7})
	defer func() {
		if recover() == nil {
			t.Fatal("a repeat that picked different targets passed")
		}
	}()
	requireSameTargets("exact", []int32{4, 8}, []int32{4, 7})
}
