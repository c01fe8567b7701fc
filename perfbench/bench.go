package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/serve"
)

// sizes fixes how much work a run does. fullSizes is what the command
// runs; the self-tests use a toy instance.
type sizes struct {
	ColdGates    int // circuitgen gates per score-cold design (~1.19 cells per gate)
	ColdPool     int // distinct score-cold designs per seed
	DeltaGates   int // circuitgen.OPIBench gates of each edit-delta design
	OPIGates     int // circuitgen.OPIBench gates of the opi-flow design
	DeltasPerSec int // edit-delta requests per client per second of --seconds
	MaxPoints    int // opi-flow max_points
	PerIteration int // opi-flow per_iteration
	Patterns     int // opi-flow fault-simulation patterns
	Setups       int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	ColdGates:    20000,
	ColdPool:     4,
	DeltaGates:   30000,
	OPIGates:     12000,
	DeltasPerSec: 50,
	MaxPoints:    32,
	PerIteration: 8,
	Patterns:     2048,
	Setups:       5,
}

// positiveQuantile places each request's threshold at the design's
// 99.35th-percentile score: the paper's 0.65% positive rate. The untrained
// default model scores every node at or above 0.5, so the server default
// would mark the whole design difficult.
const positiveQuantile = 0.9935

type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Sizes    sizes
	// mangle, when set, rewrites every response body before it is checked;
	// the self-tests use it to prove a corrupted answer is counted.
	mangle func(body []byte)
}

type metric struct {
	Name  string
	Unit  string
	Value float64
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	Record    record
}

// record is printed beside every result so a number can be traced back to
// the machine, the server configuration and the inputs that produced it.
type record struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	NumCPU      int            `json:"num_cpu"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Clients     int            `json:"clients"`
	GoVersion   string         `json:"go_version"`
	GitDescribe string         `json:"git_describe"`
	ModelDigest string         `json:"model_sha256"`
	Options     optionsRecord  `json:"server_options"`
	Designs     []designRecord `json:"designs"`
	Requests    any            `json:"requests"`
	Values      map[string]any `json:"values"`
}

type optionsRecord struct {
	MaxConcurrent    int   `json:"max_concurrent"`
	MaxQueue         int   `json:"max_queue"`
	DefaultTimeoutMs int64 `json:"default_timeout_ms"`
	MaxBodyBytes     int64 `json:"max_body_bytes"`
	CacheEntries     int   `json:"cache_entries"`
	DisableBatching  bool  `json:"disable_batching"`
	Float32Scoring   bool  `json:"float32_scoring"`
}

type designRecord struct {
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	Edges int    `json:"edges"`
	Bytes int    `json:"bytes"`
}

// workload is one traffic mix. prepare builds the seed's inputs and the
// library references the answers are checked against; warm brings a fresh
// server to steady state and is what setup_s times; drive is the measured
// closed loop; verify checks, after the measurement, what drive could not
// check inline; replay is the traced run's library replay of the same
// requests.
type workload interface {
	clients() int
	cacheEntries() int
	prepare(b *bench) error
	warm(b *bench, s *liveServer) error
	drive(b *bench, s *liveServer, seconds float64) *tally
	verify(b *bench, t *tally) error
	replay(b *bench, seconds float64) ([]layerRec, error)
	requests() any
}

// bench is the state shared by the workloads of one run.
type bench struct {
	cfg     config
	clients int // closed-loop clients: the workload's count, at most num_cpu
	model   *core.Model
	opts    serve.Options
	designs []designRecord
	values  map[string]any
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "score-cold":
		return &scoreCold{}, nil
	case "edit-delta":
		return &editDelta{}, nil
	case "opi-flow":
		return &opiFlow{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want score-cold, edit-delta or opi-flow)", name)
}

// execute runs one workload end to end: prepare, set up, then either the
// measured closed loop or the traced replay.
func execute(cfg config) (*result, error) {
	w, err := newWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	b := &bench{
		cfg:     cfg,
		clients: min(w.clients(), runtime.NumCPU()),
		model:   core.MustNewModel(core.DefaultConfig()),
		opts: serve.Options{
			ModelInfo:      "untrained default config, seed 0",
			MaxConcurrent:  2,
			MaxQueue:       8,
			DefaultTimeout: 2 * time.Minute,
			MaxBodyBytes:   64 << 20,
			CacheEntries:   w.cacheEntries(),
		},
		values: map[string]any{},
	}
	if err := w.prepare(b); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", cfg.Workload, err)
	}

	setups := cfg.Sizes.Setups
	if cfg.Trace {
		setups = 1 // the traced run reports no setup_s
	}
	var srv *liveServer
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.close()
			srv = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := startServer(b)
		if err != nil {
			return nil, fmt.Errorf("%s: start server: %w", cfg.Workload, err)
		}
		if err := w.warm(b, s); err != nil {
			s.close()
			return nil, fmt.Errorf("%s: warm-up: %w", cfg.Workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		srv = s
	}
	defer srv.close()
	srv.mangle = cfg.mangle
	runtime.GC()

	res := &result{Correct: true}
	if cfg.Trace {
		err = traced(b, w, srv, res)
	} else {
		err = measured(b, w, srv, res, median(setupTimes))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	b.values["setup_s_all"] = setupTimes
	res.Record = record{
		Workload:    cfg.Workload,
		Seed:        cfg.Seed,
		Seconds:     cfg.Seconds,
		Trace:       cfg.Trace,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Clients:     b.clients,
		GoVersion:   runtime.Version(),
		GitDescribe: obs.GitDescribe(),
		ModelDigest: modelDigest(b.model),
		Options: optionsRecord{
			MaxConcurrent:    b.opts.MaxConcurrent,
			MaxQueue:         b.opts.MaxQueue,
			DefaultTimeoutMs: b.opts.DefaultTimeout.Milliseconds(),
			MaxBodyBytes:     b.opts.MaxBodyBytes,
			CacheEntries:     b.opts.CacheEntries,
			DisableBatching:  b.opts.DisableBatching,
			Float32Scoring:   b.opts.Float32Scoring,
		},
		Designs:  b.designs,
		Requests: w.requests(),
		Values:   b.values,
	}
	return res, nil
}

// measured runs the untraced closed loop and fills the end-to-end metrics.
func measured(b *bench, w workload, srv *liveServer, res *result, setup float64) error {
	heap := watchHeap()
	alloc0 := readMetric("/gc/heap/allocs:bytes")
	t := w.drive(b, srv, b.cfg.Seconds)
	alloc := readMetric("/gc/heap/allocs:bytes") - alloc0
	peak := heap.stop()
	if err := w.verify(b, t); err != nil {
		return err
	}
	lat := t.latenciesMs()
	res.Attempted, res.Failed = t.attempted, t.failed()
	res.Correct = t.incorrect == 0
	res.Metrics = []metric{
		{"setup_s", "s", setup},
		{"latency_p50_ms", "ms", median(lat)},
		{"throughput_rps", "1/s", float64(len(lat)) / t.window.Seconds()},
		{"peak_heap_mb", "MB", float64(peak[0]) / 1e6},
		{"alloc_mb_per_req", "MB", float64(alloc) / 1e6 / float64(t.attempted)},
	}
	b.values["samples"] = len(lat)
	b.values["peak_live_mb"] = float64(peak[1]) / 1e6
	b.values["peak_goal_mb"] = float64(peak[2]) / 1e6
	b.values["error_rate"] = float64(t.failed()) / float64(t.attempted)
	b.values["refused"] = t.refused
	b.values["incorrect"] = t.incorrect
	b.values["window_s"] = t.window.Seconds()
	// Only a percentile with at least ten samples beyond it is reported.
	if len(lat) >= 100 {
		b.values["latency_p90_ms"] = quantile(lat, 0.9)
	}
	for _, m := range res.Metrics {
		b.values[m.Name] = m.Value
	}
	return nil
}

// liveServer is the serving stack on a loopback listener plus the client
// that talks to it.
type liveServer struct {
	url    string
	client *http.Client
	hs     *http.Server
	done   chan error
	mangle func([]byte)
}

func startServer(b *bench) (*liveServer, error) {
	opts := b.opts
	opts.Predictor = b.model
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits until its serve loop has exited.
func (s *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
	}
	<-s.done
	s.client.CloseIdleConnections()
}

// post sends one request and reads the whole response into buf. The
// returned latency runs from sending to the last byte read.
func (s *liveServer) post(path string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	buf.Reset()
	t0 := time.Now()
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, time.Since(t0), err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if s.mangle != nil {
		s.mangle(buf.Bytes())
	}
	return resp.StatusCode, lat, err
}

// outcome classifies one request for error_rate.
type outcome int

const (
	ok        outcome = iota
	failed            // transport error or an unexpected status
	refused           // 429 or 504: shed by admission or out of time
	incorrect         // 200 with an answer that disagrees with the library
)

func classify(status int, err error) outcome {
	switch {
	case err != nil:
		return failed
	case status == http.StatusTooManyRequests || status == http.StatusGatewayTimeout:
		return refused
	case status != http.StatusOK:
		return failed
	}
	return ok
}

// tally collects the outcomes of a closed loop.
type tally struct {
	lat                                     []time.Duration // successful requests only
	attempted, failures, refused, incorrect int
	window                                  time.Duration
}

func (t *tally) add(lat time.Duration, o outcome) {
	t.attempted++
	switch o {
	case ok:
		t.lat = append(t.lat, lat)
	case failed:
		t.failures++
	case refused:
		t.refused++
	case incorrect:
		t.incorrect++
	}
}

// markIncorrect turns one successful request into an incorrect one, for an
// answer found wrong only after the loop ended.
func (t *tally) markIncorrect() {
	if len(t.lat) > 0 {
		t.lat = t.lat[:len(t.lat)-1]
	}
	t.incorrect++
}

func (t *tally) failed() int { return t.failures + t.refused + t.incorrect }

func (t *tally) latenciesMs() []float64 {
	out := make([]float64, len(t.lat))
	for i, d := range t.lat {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// closedLoop runs n clients; each sends its next request only after the
// previous one completed. Client c's i-th request is do(c, i); a client
// stops when do reports done, after limit requests (limit > 0), or, having
// sent at least one, once the deadline has passed.
func closedLoop(n, limit int, seconds float64, do func(c, i int) (time.Duration, outcome, bool)) *tally {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	parts := make([]tally, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; limit <= 0 || i < limit; i++ {
				if limit <= 0 && i > 0 && !time.Now().Before(deadline) {
					return
				}
				lat, o, done := do(c, i)
				parts[c].add(lat, o)
				if done {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	t := &tally{window: time.Since(t0)}
	for _, p := range parts {
		t.lat = append(t.lat, p.lat...)
		t.attempted += p.attempted
		t.failures += p.failures
		t.refused += p.refused
		t.incorrect += p.incorrect
	}
	return t
}

// heapWatch samples the heap until stopped and keeps the peaks.
type heapWatch struct {
	quit chan struct{}
	done chan [3]uint64
}

var heapSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/live:bytes",
	"/gc/heap/goal:bytes",
}

func watchHeap() *heapWatch {
	w := &heapWatch{quit: make(chan struct{}), done: make(chan [3]uint64, 1)}
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak [3]uint64
		s := make([]metrics.Sample, len(heapSamples))
		for i, n := range heapSamples {
			s[i].Name = n
		}
		for {
			metrics.Read(s)
			for i := range s {
				peak[i] = max(peak[i], s[i].Value.Uint64())
			}
			select {
			case <-w.quit:
				w.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *heapWatch) stop() [3]uint64 {
	close(w.quit)
	return <-w.done
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// modelDigest hashes the weights: GEMM time depends on the activations
// they produce (tensor.MatMul skips zeros), so results are comparable only
// under the same digest.
func modelDigest(m *core.Model) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range m.Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeBench renders a netlist as .bench text and records its size.
func (b *bench) writeBench(name string, n *netlist.Netlist) (string, error) {
	var sb strings.Builder
	if err := netlist.Write(&sb, n); err != nil {
		return "", err
	}
	b.designs = append(b.designs, designRecord{Name: name, Cells: n.NumGates(), Edges: n.NumEdges(), Bytes: sb.Len()})
	return sb.String(), nil
}

// threshold returns the score at positiveQuantile.
func threshold(probs []float64) float64 {
	s := append([]float64(nil), probs...)
	sort.Float64s(s)
	return s[int(positiveQuantile*float64(len(s)-1))]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maxAbsDiff is the largest elementwise distance, +Inf for unequal lengths.
func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// parallel runs f(0..n-1) on at most runtime.NumCPU() goroutines and
// returns the first error.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
