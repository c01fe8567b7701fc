package serve

import (
	"encoding/json"
	"net/http"
)

// This file defines the /v1 wire format. docs/API.md is the normative
// reference; the types here are its implementation and must stay in
// sync.

// Error categories used in the error envelope. Each maps to exactly one
// HTTP status code (see docs/API.md).
const (
	// ErrInvalidRequest (400): malformed JSON, unparseable netlist, or
	// an argument that fails validation.
	ErrInvalidRequest = "invalid_request"
	// ErrNotFound (404): unknown endpoint, or a design id not present in
	// the cache.
	ErrNotFound = "not_found"
	// ErrTooLarge (413): request body exceeds Options.MaxBodyBytes.
	ErrTooLarge = "too_large"
	// ErrOverloaded (429): the admission queue is full; retry after the
	// Retry-After interval.
	ErrOverloaded = "overloaded"
	// ErrInternal (500): unexpected server-side failure.
	ErrInternal = "internal"
	// ErrDeadlineExceeded (504): the request deadline expired before the
	// work completed.
	ErrDeadlineExceeded = "deadline_exceeded"
)

// ErrorBody is the error payload: a machine-readable category plus a
// human-readable message, mirroring the one-line "subsystem: what went
// wrong" idiom used across the repository.
type ErrorBody struct {
	// Category is one of the Err* constants.
	Category string `json:"category"`
	// Message is a human-readable description of this occurrence.
	Message string `json:"message"`
}

// ErrorResponse is the envelope wrapping every non-2xx JSON response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// ScoreRequest is the body of POST /v1/score: a complete netlist in
// .bench text to compile and score.
type ScoreRequest struct {
	// Netlist is the .bench-format netlist text (see internal/netlist).
	Netlist string `json:"netlist"`
	// Threshold is the difficult-to-observe cutoff used to populate the
	// response's Difficult list; 0 means the default 0.5.
	Threshold float64 `json:"threshold,omitempty"`
	// TimeoutMs optionally shortens the server's default deadline for
	// this request. It can never lengthen it.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// NodeScore is one node's identity and positive (difficult-to-observe)
// probability.
type NodeScore struct {
	// ID is the node's cell ID — the index into Scores, and the value
	// /v1/score/delta and /v1/opi accept as a target.
	ID int32 `json:"id"`
	// Name is the cell's textual name when the netlist provided one.
	Name string `json:"name,omitempty"`
	// Score is the predicted probability that the node is difficult to
	// observe.
	Score float64 `json:"score"`
}

// ScoreResponse is the body of a successful /v1/score or /v1/score/delta
// call.
type ScoreResponse struct {
	// Design identifies the server-side cached design state; pass it to
	// /v1/score/delta and /v1/opi. For a fresh /v1/score it is the
	// SHA-256 hex digest of the submitted netlist text.
	Design string `json:"design"`
	// Nodes is the cell count of the (possibly delta-extended) design.
	Nodes int `json:"nodes"`
	// Scores holds one probability per cell, indexed by cell ID.
	Scores []float64 `json:"scores"`
	// Difficult lists the cells at or above the request threshold,
	// sorted by descending score.
	Difficult []NodeScore `json:"difficult"`
	// Cached reports whether the design was served from the warm cache
	// without recompilation.
	Cached bool `json:"cached"`
	// Updated is the number of attribute rows the incremental update
	// refreshed (delta responses only).
	Updated int `json:"updated,omitempty"`
	// Inserted lists the observation-point nodes a delta added, with
	// their post-update scores (delta responses only).
	Inserted []NodeScore `json:"inserted,omitempty"`
}

// DeltaRequest is the body of POST /v1/score/delta: an edit delta —
// observation-point insertions — applied to a cached design.
type DeltaRequest struct {
	// Design is the design id returned by a previous /v1/score or
	// /v1/score/delta call.
	Design string `json:"design"`
	// Observe lists target cell IDs to receive observation points, in
	// order.
	Observe []int32 `json:"observe,omitempty"`
	// ObserveNames lists targets by cell name instead; applied after
	// Observe.
	ObserveNames []string `json:"observe_names,omitempty"`
	// Threshold is the Difficult-list cutoff; 0 means the default 0.5.
	Threshold float64 `json:"threshold,omitempty"`
	// TimeoutMs optionally shortens the default deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// OPIRequest is the body of POST /v1/opi: run the GCN-guided
// observation-point-insertion flow and return suggested locations.
// Exactly one of Netlist and Design must be set.
type OPIRequest struct {
	// Netlist is a .bench netlist to run the flow on.
	Netlist string `json:"netlist,omitempty"`
	// Design runs the flow on a cached design instead (the cached state
	// itself is not mutated).
	Design string `json:"design,omitempty"`
	// MaxPoints bounds the total suggested observation points; 0 means
	// the server default (64).
	MaxPoints int `json:"max_points,omitempty"`
	// PerIteration caps insertions per flow iteration; 0 means the flow
	// default (64).
	PerIteration int `json:"per_iteration,omitempty"`
	// Threshold is the positive-prediction cutoff; 0 means 0.5.
	Threshold float64 `json:"threshold,omitempty"`
	// Evaluate additionally fault-simulates the design before and after
	// insertion and reports coverage.
	Evaluate bool `json:"evaluate,omitempty"`
	// Patterns is the random-pattern budget for Evaluate; 0 means 2048.
	Patterns int `json:"patterns,omitempty"`
	// TimeoutMs optionally shortens the default deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// OPIResponse is the body of a successful /v1/opi call.
type OPIResponse struct {
	// Design echoes the cached design id the flow ran against, if any.
	Design string `json:"design,omitempty"`
	// Points lists the suggested observation-point targets in insertion
	// order, with their pre-insertion scores.
	Points []NodeScore `json:"points"`
	// Iterations is the number of predict/insert rounds the flow ran.
	Iterations int `json:"iterations"`
	// FinalPositives is the number of difficult predictions remaining
	// when the flow stopped.
	FinalPositives int `json:"final_positives"`
	// CoverageBefore/CoverageAfter are stuck-at fault coverages from the
	// Evaluate option (absent otherwise).
	CoverageBefore *float64 `json:"coverage_before,omitempty"`
	CoverageAfter  *float64 `json:"coverage_after,omitempty"`
}

// DesignInfo is one cached design's bookkeeping in GET /v1/designs.
type DesignInfo struct {
	// Design is the cache id (pass it to /v1/score/delta and /v1/opi).
	Design string `json:"design"`
	// Nodes is the design's current cell count (grows with deltas).
	Nodes int64 `json:"nodes"`
	// SourceBytes is the stored netlist text size; 0 once the design has
	// diverged from any submittable text through deltas.
	SourceBytes int `json:"source_bytes"`
	// Hits counts cache lookups that returned this design.
	Hits int64 `json:"hits"`
	// AgeMs is milliseconds since the design was compiled.
	AgeMs int64 `json:"age_ms"`
	// IdleMs is milliseconds since the design was last looked up.
	IdleMs int64 `json:"idle_ms"`
}

// DesignsResponse is the body of GET /v1/designs: the cached designs in
// most-recently-used-first order.
type DesignsResponse struct {
	// Designs lists the cache contents, most recently used first.
	Designs []DesignInfo `json:"designs"`
	// Capacity is the configured cache size (0 when caching is off).
	Capacity int `json:"capacity"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	// Status is "ok", or "draining" once shutdown has begun (reported
	// with HTTP 503 so load balancers stop routing here).
	Status string `json:"status"`
	// Model describes the loaded predictor.
	Model string `json:"model"`
	// Version is the serving tree's git version (obs.GitDescribe);
	// absent when git or the repository is unavailable.
	Version string `json:"version,omitempty"`
	// UptimeMs is milliseconds since the server was constructed.
	UptimeMs int64 `json:"uptime_ms"`
	// CachedDesigns is the current design-cache occupancy.
	CachedDesigns int `json:"cached_designs"`
	// Inflight is the number of requests currently holding an admission
	// slot.
	Inflight int64 `json:"inflight"`
}

// writeJSON writes v as a JSON response with the given status. It
// encodes v before sending any header, so a value that cannot be encoded
// (a NaN score, say) answers 500 naming the cause, not an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	out := bodies.Get()
	out.b = out.b[:0]
	if err := json.NewEncoder(out).Encode(v); err != nil {
		writeError(w, ErrInternal, "encode response: "+err.Error())
	} else {
		writeBody(w, status, out.b)
	}
	bodies.Put(out)
}

// writeError writes the error envelope for the given category, deriving
// the status code from the category table in docs/API.md.
func writeError(w http.ResponseWriter, category, message string) {
	status := http.StatusInternalServerError
	switch category {
	case ErrInvalidRequest:
		status = http.StatusBadRequest
	case ErrNotFound:
		status = http.StatusNotFound
	case ErrTooLarge:
		status = http.StatusRequestEntityTooLarge
	case ErrOverloaded:
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case ErrDeadlineExceeded:
		status = http.StatusGatewayTimeout
	}
	mErrors.Inc()
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{Category: category, Message: message}})
}
