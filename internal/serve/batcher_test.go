package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestBatcherCoalescesConcurrentScores is the batching contract: N
// concurrent score requests for the same netlist cost one forward pass
// and return scores identical to the serial (batching-disabled) path.
func TestBatcherCoalescesConcurrentScores(t *testing.T) {
	const n = 8
	stub := &stubPredictor{started: make(chan struct{}, 1), release: make(chan struct{})}
	_, ts := newTestServer(t, Options{Predictor: stub, MaxConcurrent: n, MaxQueue: n})

	coalescedBefore := mBatchCoalesced.Value()
	responses := make([]ScoreResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &responses[i]); code != 200 {
				t.Errorf("request %d: status %d", i, code)
			}
		}(i)
	}
	// The leader is parked inside the forward pass; wait until the other
	// n-1 requests have provably joined its flight, then let it finish.
	<-stub.started
	waitUntil(t, 10*time.Second, func() bool {
		return mBatchCoalesced.Value()-coalescedBefore >= n-1
	})
	close(stub.release)
	wg.Wait()

	if f := stub.forwards.Load(); f != 1 {
		t.Fatalf("%d concurrent requests ran %d forward passes, want 1", n, f)
	}

	// Identical scores to the serial path: a batching-free, cache-free
	// server answering the same request.
	serialStub := &stubPredictor{}
	_, serialTS := newTestServer(t, Options{
		Predictor: serialStub, DisableBatching: true, CacheEntries: -1,
	})
	var serial ScoreResponse
	if code := postJSON(t, serialTS.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, &serial); code != 200 {
		t.Fatalf("serial status %d", code)
	}
	for i := range responses {
		if responses[i].Design != serial.Design {
			t.Fatalf("request %d: design %q != serial %q", i, responses[i].Design, serial.Design)
		}
		if len(responses[i].Scores) != len(serial.Scores) {
			t.Fatalf("request %d: %d scores != serial %d", i, len(responses[i].Scores), len(serial.Scores))
		}
		for v := range serial.Scores {
			if responses[i].Scores[v] != serial.Scores[v] {
				t.Fatalf("request %d node %d: %g != serial %g",
					i, v, responses[i].Scores[v], serial.Scores[v])
			}
		}
	}
}

// TestSerialPathRunsOneForwardPerRequest pins down what DisableBatching
// + disabled cache mean: every request pays its own compile.
func TestSerialPathRunsOneForwardPerRequest(t *testing.T) {
	stub := &stubPredictor{}
	_, ts := newTestServer(t, Options{Predictor: stub, DisableBatching: true, CacheEntries: -1})
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Netlist: tinyBench}, nil); code != 200 {
			t.Fatalf("status %d", code)
		}
	}
	if f := stub.forwards.Load(); f != 3 {
		t.Fatalf("3 serial requests ran %d forwards, want 3", f)
	}
}

// TestFlightGroupLeaderPanicDoesNotWedge ensures a panicking compile
// releases riders with an error instead of deadlocking the key.
func TestFlightGroupLeaderPanicDoesNotWedge(t *testing.T) {
	g := newFlightGroup()
	_, _, err := g.do(context.Background(), "k", func() (*design, error) { panic("boom") })
	if err == nil {
		t.Fatal("panic swallowed")
	}
	// The key must be reusable afterwards.
	d, leader, err := g.do(context.Background(), "k", func() (*design, error) { return &design{id: "k"}, nil })
	if err != nil || !leader || d.id != "k" {
		t.Fatalf("d=%v leader=%v err=%v", d, leader, err)
	}
}

// TestRiderOutlivesLeaderDeadline: a leader that fails on its own
// context's deadline must not fail a rider whose context is live; that
// rider runs its own function instead. A rider whose own deadline has
// passed still gets the deadline error, which answers 504, and never
// runs its function.
func TestRiderOutlivesLeaderDeadline(t *testing.T) {
	g := newFlightGroup()
	started, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.do(context.Background(), "k", func() (*design, error) {
			close(started)
			<-release
			return nil, context.DeadlineExceeded
		})
		leaderErr <- err
	}()
	<-started

	type result struct {
		d      *design
		leader bool
		err    error
	}
	coalescedBefore := mBatchCoalesced.Value()
	live, expired := make(chan result, 1), make(chan result, 1)
	go func() {
		d, leader, err := g.do(context.Background(), "k", func() (*design, error) {
			return &design{id: "rider"}, nil
		})
		live <- result{d, leader, err}
	}()
	go func() {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		d, leader, err := g.do(ctx, "k", func() (*design, error) {
			t.Error("a rider whose deadline has passed ran its function")
			return nil, nil
		})
		expired <- result{d, leader, err}
	}()
	// Both riders have provably joined the parked leader's flight.
	waitUntil(t, 10*time.Second, func() bool {
		return mBatchCoalesced.Value()-coalescedBefore >= 2
	})
	close(release)

	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader: err %v, want its own deadline", err)
	}
	if r := <-live; r.err != nil || !r.leader || r.d == nil || r.d.id != "rider" {
		t.Fatalf("live rider: design %v, leader %v, err %v; want its own function's result", r.d, r.leader, r.err)
	}
	r := <-expired
	if !errors.Is(r.err, context.DeadlineExceeded) || r.d != nil {
		t.Fatalf("expired rider: design %v, err %v; want the deadline error", r.d, r.err)
	}
	rec := httptest.NewRecorder()
	writeFailure(rec, r.err)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired rider answered %d, want 504", rec.Code)
	}
}
