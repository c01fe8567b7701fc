package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// toySizes runs every workload in a second or two.
var toySizes = sizes{
	ColdGates:    300,
	ColdPool:     2,
	DeltaGates:   600,
	OPIGates:     600,
	DeltasPerSec: 20,
	MaxPoints:    4,
	PerIteration: 2,
	Patterns:     256,
	Setups:       2,
}

var workloadNames = []string{"score-cold", "edit-delta", "opi-flow"}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runToy executes one toy-size run and returns the parsed result line and
// the record line.
func runToy(t *testing.T, cfg config) (resultLine, map[string]any) {
	t.Helper()
	cfg.Seed, cfg.Seconds, cfg.Sizes = 3, 1, toySizes
	res, err := execute(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.Workload, cfg.Trace, err)
	}
	var out bytes.Buffer
	if err := writeResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatalf("record line: %v", err)
	}
	return line, rec["record"].(map[string]any)
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
}

// TestToyRunsPrintEveryMetric runs each workload at toy size, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and that every answer was correct.
func TestToyRunsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			line, rec := runToy(t, config{Workload: name, Trace: trace})
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if rec["workload"] != name || rec["model_sha256"] == "" || rec["num_cpu"].(float64) < 1 {
				t.Errorf("%s trace=%v: incomplete record %v", name, trace, rec)
			}
		}
	}
}

// corrupt changes one digit of the first score or coverage in a response.
func corrupt(body []byte) {
	for _, key := range []string{`"scores":[`, `"coverage_before":`} {
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			continue
		}
		for j := i + len(key); j < len(body); j++ {
			if body[j] >= '1' && body[j] <= '8' {
				body[j]++
				return
			}
		}
	}
}

func TestCorruptedResponseRaisesErrorRate(t *testing.T) {
	for _, name := range workloadNames {
		line, rec := runToy(t, config{Workload: name, mangle: corrupt})
		values := rec["values"].(map[string]any)
		if line.Correct || line.Failed == 0 || values["error_rate"].(float64) <= 0 {
			t.Errorf("%s: corrupted answers gave correct=%v failed=%d error_rate=%v",
				name, line.Correct, line.Failed, values["error_rate"])
		}
	}
}

func TestRefusesUnknownWorkload(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
