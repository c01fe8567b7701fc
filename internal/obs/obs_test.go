package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// update regenerates golden files instead of comparing against them.
var update = flag.Bool("update", false, "rewrite golden files")

// withEnabled runs f with instrumentation on and a clean registry,
// restoring the disabled default afterwards.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	Reset()
	Enable()
	defer func() {
		Disable()
		Reset()
	}()
	f()
}

func TestSpanNestingAndMerging(t *testing.T) {
	withEnabled(t, func() {
		for i := 0; i < 3; i++ {
			root := StartSpan("train")
			for j := 0; j < 2; j++ {
				ep := root.Child("epoch")
				w := ep.Child("worker")
				w.End()
				ep.End()
			}
			root.End()
		}
		snap := TakeSnapshot()
		if len(snap.Spans) != 1 || snap.Spans[0].Name != "train" {
			t.Fatalf("root spans = %+v", snap.Spans)
		}
		train := snap.Spans[0]
		if train.Count != 3 {
			t.Errorf("train count = %d, want 3", train.Count)
		}
		epoch := train.Find("epoch")
		if epoch == nil || epoch.Count != 6 {
			t.Fatalf("epoch node = %+v, want count 6", epoch)
		}
		worker := train.Find("epoch/worker")
		if worker == nil || worker.Count != 6 {
			t.Fatalf("worker node = %+v, want count 6", worker)
		}
		if train.WallNS <= 0 {
			t.Errorf("train wall = %d, want > 0", train.WallNS)
		}
		if epoch.WallNS > train.WallNS {
			t.Errorf("child wall %d exceeds parent wall %d", epoch.WallNS, train.WallNS)
		}
	})
}

func TestSpanSiblingsSortedByName(t *testing.T) {
	withEnabled(t, func() {
		for _, name := range []string{"zeta", "alpha", "mid"} {
			StartSpan(name).End()
		}
		snap := TakeSnapshot()
		var got []string
		for _, s := range snap.Spans {
			got = append(got, s.Name)
		}
		want := []string{"alpha", "mid", "zeta"}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("root order = %v, want %v", got, want)
			}
		}
	})
}

func TestDisabledSpanIsNilAndSafe(t *testing.T) {
	Reset()
	Disable()
	s := StartSpan("nope")
	if s != nil {
		t.Fatal("StartSpan should return nil while disabled")
	}
	// All methods must be no-ops on nil.
	c := s.Child("still-nope")
	c.End()
	s.End()
	if spans := TakeSnapshot().Spans; len(spans) != 0 {
		t.Fatalf("disabled run recorded spans: %+v", spans)
	}
}

func TestDisabledPathsAllocateNothing(t *testing.T) {
	Reset()
	Disable()
	ctr := GetCounter("alloc.test")
	allocs := testing.AllocsPerRun(100, func() {
		s := StartSpan("x")
		s.Child("y").End()
		s.End()
		ctr.Add(5)
		ctr.Inc()
	})
	if allocs != 0 {
		t.Fatalf("disabled span/counter path allocates %.1f bytes/op, want 0", allocs)
	}
	if ctr.Value() != 0 {
		t.Fatalf("disabled counter accumulated %d", ctr.Value())
	}
}

func TestConcurrentCounters(t *testing.T) {
	withEnabled(t, func() {
		c := GetCounter("concurrent.adds")
		h := GetHistogram("concurrent.obs")
		g := GetGauge("concurrent.gauge")
		const workers, perWorker = 8, 1000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					c.Inc()
					h.Observe(int64(i))
					g.Set(int64(w))
				}
			}(w)
		}
		wg.Wait()
		if c.Value() != workers*perWorker {
			t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
		}
		snap := h.snapshot()
		if snap.Count != workers*perWorker {
			t.Errorf("histogram count = %d, want %d", snap.Count, workers*perWorker)
		}
		if snap.Min != 0 || snap.Max != perWorker-1 {
			t.Errorf("histogram min/max = %d/%d, want 0/%d", snap.Min, snap.Max, perWorker-1)
		}
		wantSum := int64(workers) * perWorker * (perWorker - 1) / 2
		if snap.Sum != wantSum {
			t.Errorf("histogram sum = %d, want %d", snap.Sum, wantSum)
		}
	})
}

func TestGetCounterIdempotent(t *testing.T) {
	if GetCounter("same.name") != GetCounter("same.name") {
		t.Fatal("GetCounter returned distinct handles for one name")
	}
	if GetCounter("same.name").Name() != "same.name" {
		t.Fatal("counter name mismatch")
	}
}

func TestResetZeroesMetricsAndSpans(t *testing.T) {
	withEnabled(t, func() {
		GetCounter("reset.me").Add(7)
		GetGauge("reset.gauge").Set(3)
		GetHistogram("reset.hist").Observe(9)
		StartSpan("reset-span").End()
		Reset()
		snap := TakeSnapshot()
		if len(snap.Spans) != 0 || len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
			t.Fatalf("snapshot after Reset not empty: %+v", snap)
		}
		// Handles stay live.
		GetCounter("reset.me").Add(1)
		if got := TakeSnapshot().Counters["reset.me"]; got != 1 {
			t.Fatalf("counter after Reset = %d, want 1", got)
		}
	})
}

func TestManifestRoundTripAndDeterminism(t *testing.T) {
	withEnabled(t, func() {
		GetCounter("spmm.rows").Add(12345)
		GetGauge("train.workers").Set(4)
		GetHistogram("opi.positives").Observe(17)
		s := StartSpan("train")
		time.Sleep(time.Millisecond)
		s.Child("epoch").End()
		s.End()

		m := NewManifest("unit-test", map[string]any{"quick": true, "seed": 42})
		dir := t.TempDir()
		path := filepath.Join(dir, "manifest.json")
		if err := m.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var back Manifest
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("manifest is not valid JSON: %v", err)
		}
		if back.Name != "unit-test" || back.SchemaVersion != 1 {
			t.Errorf("round-trip lost identity: %+v", back)
		}
		if back.GOMAXPROCS <= 0 || back.GoVersion == "" {
			t.Errorf("environment not captured: %+v", back)
		}
		if back.Snapshot.Counters["spmm.rows"] != 12345 {
			t.Errorf("counters lost: %+v", back.Snapshot.Counters)
		}
		if len(back.Snapshot.Spans) != 1 || back.Snapshot.Spans[0].Name != "train" {
			t.Errorf("span tree lost: %+v", back.Snapshot.Spans)
		}

		// Re-marshaling the same manifest must be byte-identical.
		again, err := m.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(raw) {
			t.Error("marshaling the same manifest twice produced different bytes")
		}
	})
}

// TestManifestGolden pins the serialized layout against a committed
// golden file so schema drift is a conscious decision (regenerate with
// go test ./internal/obs -run Golden -update).
func TestManifestGolden(t *testing.T) {
	m := &Manifest{
		SchemaVersion: 1,
		Name:          "golden",
		Config:        map[string]any{"quick": true},
		GoVersion:     "go1.22",
		GOOS:          "linux",
		GOARCH:        "amd64",
		NumCPU:        8,
		GOMAXPROCS:    8,
		Snapshot: Snapshot{
			Spans: []*SpanNode{{
				Name: "train", Count: 2, WallNS: 1500, AllocBytes: 4096,
				Children: []*SpanNode{{Name: "epoch", Count: 20, WallNS: 1400, AllocBytes: 4000}},
			}},
			Counters:   map[string]int64{"spmm.rows": 99, "train.epochs": 20},
			Gauges:     map[string]int64{"train.workers": 4},
			Histograms: map[string]HistogramSnapshot{"opi.positives": {Count: 1, Sum: 17, Min: 17, Max: 17, Buckets: []HistogramBucket{{UpperBound: 31, Count: 1}}}},
		},
	}
	got, err := m.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "manifest_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("manifest JSON drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	withEnabled(t, func() {
		h := GetHistogram("bucket.test")
		for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
			h.Observe(v)
		}
		s := h.snapshot()
		if s.Count != 7 {
			t.Fatalf("count = %d", s.Count)
		}
		if s.Min != 0 || s.Max != 1000 {
			t.Fatalf("min/max = %d/%d", s.Min, s.Max)
		}
		// Values below 16 land in exact buckets (0 and -5 → le=0; 1 → le=1;
		// 2 → le=2; 3 → le=3; 4 → le=4); 1000 lands in the log-linear
		// bucket [992, 1023].
		wantBuckets := map[int64]int64{0: 2, 1: 1, 2: 1, 3: 1, 4: 1, 1023: 1}
		if len(s.Buckets) != len(wantBuckets) {
			t.Fatalf("buckets = %+v", s.Buckets)
		}
		prev := int64(-1)
		for _, b := range s.Buckets {
			if wantBuckets[b.UpperBound] != b.Count {
				t.Errorf("bucket le=%d count=%d, want %d", b.UpperBound, b.Count, wantBuckets[b.UpperBound])
			}
			if b.UpperBound <= prev {
				t.Errorf("buckets not ascending: %+v", s.Buckets)
			}
			prev = b.UpperBound
		}
	})
}

func BenchmarkDisabledSpanCheck(b *testing.B) {
	Disable()
	c := GetCounter("bench.disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := StartSpan("bench")
		s.End()
		c.Add(1)
	}
}

func BenchmarkEnabledCounterAdd(b *testing.B) {
	Reset()
	Enable()
	defer func() { Disable(); Reset() }()
	c := GetCounter("bench.enabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
