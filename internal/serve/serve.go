// Package serve is the inference-as-a-service layer: a long-lived HTTP
// server that loads trained GCN weights once and answers testability
// queries over JSON — the paper's load-once/query-many usage pattern for
// trained models on production designs.
//
// # Endpoints
//
//	POST /v1/score        submit a .bench netlist, get per-node
//	                      difficult-to-observe scores
//	POST /v1/score/delta  apply observation-point edits to a cached
//	                      design and rescore incrementally
//	POST /v1/opi          run the GCN-guided insertion flow and return
//	                      suggested observation points
//	GET  /v1/designs      list cached designs (size, age, hit counts)
//	GET  /healthz         liveness/readiness
//	GET  /metrics         Prometheus exposition (internal/obs)
//	GET  /snapshot        full observability snapshot (internal/obs)
//	GET  /debug/requests  inflight + recent request traces (internal/obs)
//
// docs/SERVING.md describes the architecture and semantics;
// docs/API.md is the normative wire-format reference.
//
// # Production plumbing
//
// Four mechanisms make the server fit for concurrent production use.
// A single-flight batcher coalesces concurrent score requests for the
// same netlist into one compile + one SpMM forward call. A warm LRU
// cache keyed by netlist hash keeps compiled designs and their cached
// GCN layer embeddings alive, so repeat scores are O(1) and edit deltas
// cost a D-hop-bounded incremental update instead of a full forward
// pass. A bounded admission queue sheds excess load early (429 +
// Retry-After) instead of letting latency grow without bound. And every
// request runs under a context deadline (server default, shortenable
// per request), reported as 504 when exceeded.
package serve

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Options configures a Server. The zero value of every field selects a
// sensible default.
type Options struct {
	// Predictor is the trained model that scores graphs; required. It is
	// shared by every request, so it must be safe for concurrent use:
	// *core.Model and *core.MultiStage are, because inference never
	// writes them. NewIncremental(g).Probs() must equal PredictProbs(g),
	// since /v1/opi labels its points with the design's session scores.
	Predictor core.IncrementalPredictor

	// ModelInfo is a human-readable description of the loaded weights,
	// echoed by /healthz.
	ModelInfo string

	// MaxConcurrent bounds requests doing work simultaneously; default
	// 4.
	MaxConcurrent int

	// MaxQueue bounds requests waiting for a slot; beyond it requests
	// are shed with 429. Default 64.
	MaxQueue int

	// DefaultTimeout is the per-request deadline; a request's timeout_ms
	// field may shorten it but never lengthen it. Default 30s.
	DefaultTimeout time.Duration

	// MaxBodyBytes caps request body size (413 beyond it). Default
	// 64 MiB.
	MaxBodyBytes int64

	// CacheEntries sizes the compiled-design LRU. 0 selects the default
	// (32); negative disables caching entirely, which also disables
	// /v1/score/delta (every design id becomes unknown).
	CacheEntries int

	// DisableBatching turns off single-flight coalescing of identical
	// concurrent score requests; used by benchmarks and tests to measure
	// the serial path.
	DisableBatching bool

	// Float32Scoring compiles designs with the predictor's float32
	// scoring call when it has one (PredictProbs32, as *core.Model and
	// *core.MultiStage do): /v1/score pays a ~2×-lighter f32 forward
	// pass instead of building the float64 incremental session up front.
	// The session is then built lazily on a design's first /v1/score/delta
	// (delta updates stay exact float64), so score-only traffic never pays
	// for it. Scores differ from the f64 path by at most ~1e-4
	// (refcheck.F32Tolerance).
	Float32Scoring bool

	// AccessLog, when non-nil, receives one structured JSON line per
	// logged request (see obs.AccessRecord for the schema). nil disables
	// access logging.
	AccessLog io.Writer

	// AccessLogSample logs one in every AccessLogSample fast requests;
	// <=1 logs all of them. Slow requests always log.
	AccessLogSample int

	// SlowRequest is the slow-request threshold: a request at or above
	// it bypasses access-log sampling, logs its full phase breakdown,
	// and increments serve.slow_requests. 0 disables slow detection.
	SlowRequest time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 32
	}
	if o.ModelInfo == "" {
		o.ModelInfo = "unnamed predictor"
	}
	return o
}

// Server is the HTTP inference service. Construct with New, expose with
// Handler, and call StartDraining when shutting down.
type Server struct {
	opts      Options
	admit     *admission
	cache     *designCache
	flight    *flightGroup
	mux       *http.ServeMux
	accessLog *obs.AccessLogger
	start     time.Time
	draining  atomic.Bool
}

// New builds a Server around a loaded predictor (see
// core.LoadCheckpointFile).
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Predictor == nil {
		return nil, errNoPredictor
	}
	s := &Server{
		opts:      opts,
		admit:     newAdmission(opts.MaxConcurrent, opts.MaxQueue),
		cache:     newDesignCache(opts.CacheEntries),
		flight:    newFlightGroup(),
		mux:       http.NewServeMux(),
		accessLog: obs.NewAccessLogger(opts.AccessLog, opts.AccessLogSample, opts.SlowRequest),
		start:     time.Now(),
	}
	s.mux.HandleFunc("POST /v1/score", s.instrument("score", s.handleScore))
	s.mux.HandleFunc("POST /v1/score/delta", s.instrument("delta", s.handleDelta))
	s.mux.HandleFunc("POST /v1/opi", s.instrument("opi", s.handleOPI))
	s.mux.HandleFunc("GET /v1/designs", s.instrument("designs", s.handleDesigns))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	obs.RegisterHTTP(s.mux) // /metrics, /snapshot, /debug/requests
	return s, nil
}

// Handler returns the server's HTTP handler (the /v1 API plus /healthz,
// /metrics and /snapshot).
func (s *Server) Handler() http.Handler { return s.mux }

// StartDraining flips /healthz to "draining" (HTTP 503) so load
// balancers stop sending new work while in-flight requests finish;
// cmd/serve calls it on SIGTERM before http.Server.Shutdown.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// CachedDesigns reports current design-cache occupancy.
func (s *Server) CachedDesigns() int { return s.cache.len() }
