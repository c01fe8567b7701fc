package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// withTracing runs f with instrumentation + tracing on and a clean
// registry, restoring the disabled defaults afterwards.
func withTracing(t *testing.T, f func()) {
	t.Helper()
	Reset()
	Enable()
	EnableTracing()
	defer func() {
		DisableTracing()
		Disable()
		Reset()
	}()
	f()
}

// TestTraceGolden pins the exported Chrome Trace Event Format bytes
// against a committed golden file so drift in the serialized layout is
// a conscious decision (regenerate with
// go test ./internal/obs -run TraceGolden -update).
func TestTraceGolden(t *testing.T) {
	spans := []traceEvent{
		{Name: "train/epoch/worker", Ph: "X", TS: 120, Dur: 400, PID: tracePID, TID: 2},
		{Name: "train/epoch/worker", Ph: "X", TS: 100, Dur: 450, PID: tracePID, TID: 1},
		{Name: "train/epoch", Ph: "X", TS: 90, Dur: 500, PID: tracePID, TID: 0},
	}
	events := []EventRecord{
		{Name: "train.epoch", TS: 600_000, Attrs: map[string]any{
			"epoch": int64(0), "loss": 0.6931, "workers": int64(2),
		}},
	}
	threads := map[int64]string{1: "train worker 0", 2: "train worker 1"}

	got, err := marshalTrace(spans, events, threads, 3)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("trace JSON drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceEndToEnd exercises the live path: spans with worker tids and
// events recorded under tracing must export as a valid Trace Event
// Format document with one timeline per worker.
func TestTraceEndToEnd(t *testing.T) {
	withTracing(t, func() {
		TraceThreadName(1, "train worker 0")
		TraceThreadName(2, "train worker 1")
		root := StartSpan("train")
		ep := root.Child("epoch")
		for w := int64(1); w <= 2; w++ {
			ws := ep.ChildTID("worker", w)
			time.Sleep(time.Millisecond)
			ws.End()
		}
		ep.End()
		root.End()
		Event("train.epoch", I("epoch", 0), F("loss", 0.5))

		path := filepath.Join(t.TempDir(), "trace.json")
		if err := WriteTrace(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				TS   float64        `json:"ts"`
				Dur  float64        `json:"dur"`
				PID  int            `json:"pid"`
				TID  int64          `json:"tid"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
			DisplayTimeUnit string `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		if doc.DisplayTimeUnit != "ms" {
			t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
		}

		workerTIDs := map[int64]bool{}
		var sawEpochSpan, sawInstant bool
		threadNames := map[int64]string{}
		for _, ev := range doc.TraceEvents {
			switch ev.Ph {
			case "X":
				if ev.Dur <= 0 {
					t.Errorf("complete event %q has dur %v", ev.Name, ev.Dur)
				}
				if ev.Name == "train/epoch/worker" {
					workerTIDs[ev.TID] = true
				}
				if ev.Name == "train/epoch" {
					sawEpochSpan = true
				}
			case "i":
				if ev.Name == "train.epoch" {
					sawInstant = true
					if ev.Args["loss"] != 0.5 {
						t.Errorf("instant args = %v", ev.Args)
					}
				}
			case "M":
				if ev.Name == "thread_name" {
					threadNames[ev.TID], _ = ev.Args["name"].(string)
				}
			default:
				t.Errorf("unexpected phase %q", ev.Ph)
			}
		}
		if !workerTIDs[1] || !workerTIDs[2] {
			t.Errorf("worker spans not split one tid per worker: %v", workerTIDs)
		}
		if !sawEpochSpan || !sawInstant {
			t.Errorf("missing span/instant events (epoch=%v instant=%v)", sawEpochSpan, sawInstant)
		}
		if threadNames[1] != "train worker 0" || threadNames[2] != "train worker 1" || threadNames[0] != "main" {
			t.Errorf("thread names = %v", threadNames)
		}
	})
}

func TestTracingOffRecordsNothing(t *testing.T) {
	Reset()
	Enable()
	defer func() {
		Disable()
		Reset()
	}()
	s := StartSpan("quiet")
	s.Child("inner").End()
	s.End()
	tr.mu.Lock()
	n := len(tr.spans)
	tr.mu.Unlock()
	if n != 0 {
		t.Fatalf("tracing disabled but %d span events buffered", n)
	}
}

func TestTraceCapacityDropsNotGrows(t *testing.T) {
	withTracing(t, func() {
		setTraceCapacity(4)
		defer setTraceCapacity(defaultTraceCapacity)
		for i := 0; i < 10; i++ {
			StartSpan("s").End()
		}
		tr.mu.Lock()
		n, dropped := len(tr.spans), tr.dropped
		tr.mu.Unlock()
		if n != 4 || dropped != 6 {
			t.Fatalf("buffered %d dropped %d, want 4/6", n, dropped)
		}
	})
}

func TestEventRingKeepsNewest(t *testing.T) {
	Reset()
	Enable()
	setEventCapacity(3)
	defer func() {
		Disable()
		setEventCapacity(defaultEventCapacity)
	}()
	for i := int64(0); i < 5; i++ {
		Event("tick", I("i", i))
	}
	evs, overwrote := events.snapshot()
	if len(evs) != 3 || overwrote != 2 {
		t.Fatalf("ring has %d events, overwrote %d; want 3/2", len(evs), overwrote)
	}
	for idx, want := range []int64{2, 3, 4} {
		if got := evs[idx].Attrs["i"]; got != want {
			t.Errorf("event %d = %v, want i=%d", idx, evs[idx], want)
		}
	}
	snap := TakeSnapshot()
	if len(snap.Events) != 3 || snap.EventsOverwritten != 2 {
		t.Errorf("snapshot events = %d overwritten = %d", len(snap.Events), snap.EventsOverwritten)
	}
}

func TestEventDisabledIsFreeAndSilent(t *testing.T) {
	Reset()
	Disable()
	allocs := testing.AllocsPerRun(100, func() {
		Event("nope")
	})
	if allocs != 0 {
		t.Fatalf("disabled attr-less Event allocates %.1f bytes/op, want 0", allocs)
	}
	Event("nope", I("x", 1))
	if evs := Events(); len(evs) != 0 {
		t.Fatalf("disabled Event recorded %d entries", len(evs))
	}
}

// setTraceCapacity resizes the span-event buffer (and clears it).
func setTraceCapacity(n int) {
	tr.mu.Lock()
	tr.capacity = n
	tr.spans = nil
	tr.dropped = 0
	tr.mu.Unlock()
}
