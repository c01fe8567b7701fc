package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opi"
	"repro/internal/scoap"
)

// errNoPredictor is returned by New when Options.Predictor is nil.
var errNoPredictor = errors.New("serve: Options.Predictor is required")

// requestError carries a client-facing category through the compile and
// delta paths so one error value can select both status code and
// envelope.
type requestError struct {
	category string
	msg      string
}

func (e *requestError) Error() string { return e.msg }

func badRequest(msg string) error { return &requestError{ErrInvalidRequest, msg} }

// defaultThreshold is the difficult-to-observe cutoff when a request
// leaves threshold unset, matching the paper's 0.5 decision boundary.
const defaultThreshold = 0.5

// requestContext derives the request deadline: the server default,
// shortened (never lengthened) by the request's timeout_ms.
func (s *Server) requestContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	// Compare in milliseconds: converting a huge timeoutMs to a Duration
	// first would overflow into a negative, already-expired deadline.
	if timeoutMs > 0 && timeoutMs < d.Milliseconds() {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// decodeJSON parses the request body into v under the body-size cap,
// writing the error response itself when it fails.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, ErrTooLarge, "request body exceeds limit")
		} else {
			writeError(w, ErrInvalidRequest, "invalid JSON body: "+err.Error())
		}
		return false
	}
	return true
}

// writeFailure maps an error from the admission/compile/delta paths to
// its envelope.
func writeFailure(w http.ResponseWriter, err error) {
	var re *requestError
	switch {
	case errors.As(err, &re):
		writeError(w, re.category, re.msg)
	case errors.Is(err, errShed):
		writeError(w, ErrOverloaded, "server at capacity; retry later")
	case isContextErr(err):
		writeError(w, ErrDeadlineExceeded, "request deadline exceeded")
	default:
		writeError(w, ErrInternal, err.Error())
	}
}

// float32Scorer is the float32 scoring call Options.Float32Scoring uses;
// *core.Model and *core.MultiStage have it.
type float32Scorer interface {
	PredictProbs32(g *core.Graph) []float64
}

// compile parses, analyzes and scores a netlist, producing a cached
// design whose incremental session holds warm embeddings. This is the
// expensive path — one SCOAP analysis plus one full SpMM forward — that
// the cache and the batcher both exist to avoid repeating.
func (s *Server) compile(ctx context.Context, id string, body []byte) (*design, error) {
	if err := ctx.Err(); err != nil {
		mDeadline.Inc()
		return nil, err
	}
	// Phases land in the originating request's trace; under the batcher
	// that is the leader's trace (riders record batch_wait instead).
	tr := obs.RequestFromContext(ctx)
	ph := tr.StartPhase("parse")
	n, err := netlist.Read(bytes.NewReader(body))
	if err != nil {
		ph.End()
		return nil, badRequest("netlist parse: " + err.Error())
	}
	if err := n.Validate(); err != nil {
		ph.End()
		return nil, badRequest("netlist validate: " + err.Error())
	}
	ph.End()
	ph = tr.StartPhase("scoap")
	meas := scoap.Compute(n)
	g := core.FromNetlist(n, meas)
	ph.End()
	if err := ctx.Err(); err != nil {
		mDeadline.Inc()
		return nil, err
	}
	ph = tr.StartPhase("forward")
	now := time.Now()
	d := &design{
		id:         id,
		source:     append([]byte(nil), body...),
		net:        n,
		meas:       meas,
		g:          g,
		created:    now,
		lastAccess: now,
	}
	if f32, ok := s.opts.Predictor.(float32Scorer); ok && s.opts.Float32Scoring {
		// f32 compile path: score now, defer the float64 incremental
		// session to the first delta (see design.ensureRun).
		d.scores = f32.PredictProbs32(g)
	} else {
		d.run = s.opts.Predictor.NewIncremental(g) // the one full forward pass
	}
	d.nodes.Store(int64(n.NumGates()))
	ph.End()
	s.cache.insert(d)
	return d, nil
}

// respondScore writes a design's current scores: the difficult list in a
// rank phase, then the response in an encode phase. Both read the
// design's live probabilities under its lock; the response is written
// after the lock is released, from a pooled buffer that keeps nothing.
func (s *Server) respondScore(w http.ResponseWriter, tr *obs.ReqTrace, d *design, threshold float64, cached bool) {
	d.mu.Lock()
	ph := tr.StartPhase("rank")
	resp := ScoreResponse{
		Design:    s.cache.idOf(d),
		Nodes:     d.net.NumGates(),
		Difficult: difficultList(d.net, d.probs(), threshold),
		Cached:    cached,
	}
	ph.End()
	ph = tr.StartPhase("encode")
	out := bodies.Get()
	var err error
	out.b, _, _, err = appendScoreResponse(out.b[:0], &resp, d.probs(), nil)
	d.mu.Unlock()
	if err != nil {
		writeError(w, ErrInternal, "encode response: "+err.Error())
	} else {
		writeBody(w, http.StatusOK, out.b)
	}
	bodies.Put(out)
	ph.End()
}

// difficultList collects the nodes at or above threshold, sorted by
// descending score (ties by ascending id). Callers must hold the design
// lock.
func difficultList(n *netlist.Netlist, probs []float64, threshold float64) []NodeScore {
	if threshold <= 0 {
		threshold = defaultThreshold
	}
	out := []NodeScore{}
	for v, p := range probs {
		if p >= threshold {
			out = append(out, NodeScore{ID: int32(v), Name: n.Gate(int32(v)).Name, Score: p})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// handleScore implements POST /v1/score: full-netlist scoring through
// the cache and the single-flight batcher.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	mScoreRequests.Inc()
	defer func() { mScoreLatency.Observe(time.Since(start).Nanoseconds()) }()
	tr := obs.RequestFromContext(r.Context())

	var req ScoreRequest
	ph := tr.StartPhase("decode")
	ok := s.decodeJSON(w, r, &req)
	ph.End()
	if !ok {
		return
	}
	if req.Netlist == "" {
		writeError(w, ErrInvalidRequest, "netlist field is required")
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	ph = tr.StartPhase("queue")
	err := s.admit.acquire(ctx)
	ph.End()
	if err != nil {
		writeFailure(w, err)
		return
	}
	defer s.admit.release()

	d, cached, err := s.designOf(ctx, tr, []byte(req.Netlist))
	if err != nil {
		writeFailure(w, err)
		return
	}
	s.respondScore(w, tr, d, req.Threshold, cached)
}

// designOf returns the compiled design of a netlist body: the cached one
// when its source matches, else a fresh compile, coalesced with
// identical concurrent compiles by the batcher unless
// Options.DisableBatching is set. cached reports a cache hit, which the
// request trace records as its "cache" annotation. /v1/score and
// /v1/opi both obtain their designs here.
func (s *Server) designOf(ctx context.Context, tr *obs.ReqTrace, body []byte) (d *design, cached bool, err error) {
	key := s.cache.hash(body)
	if d, ok := s.cache.lookupSource(key, body); ok {
		tr.Annotate("cache", "hit")
		return d, true, nil
	}
	tr.Annotate("cache", "miss")
	if s.opts.DisableBatching {
		d, err = s.compile(ctx, key, body)
	} else {
		d, _, err = s.flight.do(ctx, key, func() (*design, error) {
			return s.compile(ctx, key, body)
		})
	}
	return d, false, err
}

// handleDelta implements POST /v1/score/delta: observation-point edits
// applied to a cached design, rescored through the incremental session
// at D-hop-bounded cost. The design is re-keyed to a new id; the old id
// stops resolving (each id names one immutable design state).
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	mDeltaRequests.Inc()
	defer func() { mDeltaLatency.Observe(time.Since(start).Nanoseconds()) }()
	tr := obs.RequestFromContext(r.Context())

	var req DeltaRequest
	ph := tr.StartPhase("decode")
	ok := s.decodeJSON(w, r, &req)
	ph.End()
	if !ok {
		return
	}
	if req.Design == "" {
		writeError(w, ErrNotFound, "design field is required")
		return
	}
	if len(req.Observe) == 0 && len(req.ObserveNames) == 0 {
		writeError(w, ErrInvalidRequest, "delta contains no edits (observe / observe_names)")
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	ph = tr.StartPhase("queue")
	err := s.admit.acquire(ctx)
	ph.End()
	if err != nil {
		writeFailure(w, err)
		return
	}
	defer s.admit.release()

	d, ok := s.cache.lookupID(req.Design)
	if !ok {
		writeError(w, ErrNotFound, "unknown design id "+req.Design)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s.cache.idOf(d) != req.Design {
		// A concurrent delta advanced this design between lookup and
		// lock; the state the caller referenced no longer exists.
		writeError(w, ErrNotFound, "design id "+req.Design+" superseded by a newer delta")
		return
	}

	targets, err := resolveTargets(d.net, req.Observe, req.ObserveNames)
	if err != nil {
		writeFailure(w, err)
		return
	}
	if err := ctx.Err(); err != nil {
		mDeadline.Inc()
		writeFailure(w, err)
		return
	}

	if d.run == nil {
		// A float32-compiled design opens its float64 session before the
		// edits, so that the first update grows it with headroom, as on a
		// float64 design, and the next delta does not copy it to grow.
		ph = tr.StartPhase("forward")
		d.ensureRun(s.opts.Predictor)
		ph.End()
	}

	// The exact insertion recipe of the opi flow: netlist node + edge,
	// SCOAP relaxation of the cells whose observability falls, in-place
	// CSR update, attribute refresh — then one incremental update over
	// the combined dirty set. The netlist keeps its levels
	// current per insertion, so n.Levels() is a lookup.
	var dirty []int32
	ph = tr.StartPhase("apply")
	for _, t := range targets {
		_, touched, err := opi.InsertAndRefresh(d.net, d.meas, d.g, t, d.net.Levels())
		if err != nil {
			// resolveTargets vetted every target, so nothing was mutated
			// for this one; report it without applying the rest.
			ph.End()
			writeFailure(w, badRequest("observe "+itoa32(t)+": "+err.Error()))
			return
		}
		dirty = append(dirty, touched...)
	}
	ph.End()
	ph = tr.StartPhase("forward")
	d.run.Update(d.g, dirty) // appended OP nodes are implicitly dirty
	ph.End()

	newID := deltaID(req.Design, targets)
	s.cache.rekey(req.Design, newID, d)
	d.nodes.Store(int64(d.net.NumGates()))

	ph = tr.StartPhase("rank")
	probs := d.run.Probs()
	inserted := make([]NodeScore, len(targets))
	for i, t := range targets {
		inserted[i] = NodeScore{ID: t, Name: d.net.Gate(t).Name, Score: probs[t]}
	}
	resp := ScoreResponse{
		Design:    newID,
		Nodes:     d.net.NumGates(),
		Difficult: difficultList(d.net, probs, req.Threshold),
		Cached:    true,
		Updated:   len(dirty),
		Inserted:  inserted,
	}
	ph.End()
	// The response is written under the design lock: its score text is
	// the design's kept text, which the next delta rewrites.
	ph = tr.StartPhase("encode")
	if b, err := d.text.encode(&resp, probs); err != nil {
		writeError(w, ErrInternal, "encode response: "+err.Error())
	} else {
		writeBody(w, http.StatusOK, b)
	}
	ph.End()
}

// resolveTargets validates and merges a delta's id- and name-addressed
// targets. Every target must exist and be insertable (not an Input,
// Output or Obs cell).
func resolveTargets(n *netlist.Netlist, ids []int32, names []string) ([]int32, error) {
	targets := make([]int32, 0, len(ids)+len(names))
	for _, t := range ids {
		if t < 0 || int(t) >= n.NumGates() {
			return nil, badRequest("observe target " + itoa32(t) + " out of range")
		}
		targets = append(targets, t)
	}
	for _, name := range names {
		t, ok := n.IDByName(name)
		if !ok {
			return nil, badRequest("observe target " + name + " not found")
		}
		targets = append(targets, t)
	}
	for _, t := range targets {
		switch n.Type(t) {
		case netlist.Input, netlist.Output, netlist.Obs:
			return nil, badRequest("observe target " + itoa32(t) + " is a " +
				n.Type(t).String() + " cell and cannot take an observation point")
		}
	}
	return targets, nil
}

// handleOPI implements POST /v1/opi: run the GCN-guided insertion flow
// on a private copy of a submitted or cached design and return the
// suggested observation points. The cached design itself is never
// mutated; apply the suggestions with /v1/score/delta to make them
// stick.
func (s *Server) handleOPI(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	mOPIRequests.Inc()
	defer func() { mOPILatency.Observe(time.Since(start).Nanoseconds()) }()
	tr := obs.RequestFromContext(r.Context())

	var req OPIRequest
	ph := tr.StartPhase("decode")
	ok := s.decodeJSON(w, r, &req)
	ph.End()
	if !ok {
		return
	}
	if (req.Netlist == "") == (req.Design == "") {
		writeError(w, ErrInvalidRequest, "exactly one of netlist and design must be set")
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	ph = tr.StartPhase("queue")
	err := s.admit.acquire(ctx)
	ph.End()
	if err != nil {
		writeFailure(w, err)
		return
	}
	defer s.admit.release()

	// Obtain a private (netlist, measures, graph) copy to mutate.
	var d *design
	if req.Netlist != "" {
		if d, _, err = s.designOf(ctx, tr, []byte(req.Netlist)); err != nil {
			writeFailure(w, err)
			return
		}
	} else {
		var ok bool
		if d, ok = s.cache.lookupID(req.Design); !ok {
			writeError(w, ErrNotFound, "unknown design id "+req.Design)
			return
		}
	}
	maxPoints := req.MaxPoints
	if maxPoints <= 0 {
		maxPoints = 64
	}
	// The design's current scores label the suggested points: /v1/score
	// serves them for this design, and for a float64 design they are what
	// the flow's first round over the copy reads. The design's warm
	// session is copied with the graph, so the flow pays no whole-graph
	// forward; a design without a copyable session (float32-compiled and
	// not yet edited, or a predictor whose sessions core cannot copy)
	// leaves the flow to open its own on the clone. Each observation
	// point appends one row, and the flow inserts at most maxPoints of
	// them and at most one per cell, so the copy leaves room for that
	// many. The copy holds the design's lock, so a delta on the same
	// design waits for it.
	ph = tr.StartPhase("clone")
	d.mu.Lock()
	baseID := s.cache.idOf(d)
	n := d.net.Clone()
	meas := d.meas.Clone()
	g := d.g.Clone()
	probs0 := append([]float64(nil), d.probs()...)
	run, warm := core.CopyRun(d.run, min(maxPoints, g.N))
	d.mu.Unlock()
	ph.End()

	var before *float64
	if req.Evaluate {
		ph = tr.StartPhase("evaluate")
		v := evaluateCoverage(n, req.Patterns)
		ph.End()
		before = &v
	}
	ph = tr.StartPhase("flow")
	flow := opi.FlowConfig{
		Threshold:     req.Threshold,
		PerIteration:  req.PerIteration,
		MaxInsertions: maxPoints,
	}
	var res opi.FlowResult
	if warm {
		res = opi.RunFlowOn(n, meas, g, s.opts.Predictor, run, flow)
	} else {
		res = opi.RunFlow(n, meas, g, s.opts.Predictor, flow)
	}
	ph.End()
	if err := ctx.Err(); err != nil {
		mDeadline.Inc()
		writeFailure(w, err)
		return
	}
	var after *float64
	if req.Evaluate {
		ph = tr.StartPhase("evaluate")
		v := evaluateCoverage(n, req.Patterns)
		ph.End()
		after = &v
	}

	ph = tr.StartPhase("rank")
	points := make([]NodeScore, len(res.Targets))
	for i, t := range res.Targets {
		score := 0.0
		if int(t) < len(probs0) {
			score = probs0[t]
		}
		points[i] = NodeScore{ID: t, Name: n.Gate(t).Name, Score: score}
	}
	ph.End()
	resp := OPIResponse{
		Points:         points,
		Iterations:     res.Iterations,
		FinalPositives: res.FinalPositives,
		CoverageBefore: before,
		CoverageAfter:  after,
	}
	if req.Design != "" {
		resp.Design = baseID
	}
	ph = tr.StartPhase("encode")
	writeJSON(w, http.StatusOK, resp)
	ph.End()
}

// evaluateCoverage fault-simulates the netlist with a bounded random
// pattern budget and returns stuck-at coverage.
func evaluateCoverage(n *netlist.Netlist, patterns int) float64 {
	if patterns <= 0 {
		patterns = 2048
	}
	return opi.Evaluate(n, fault.TPGConfig{MaxPatterns: patterns}).Coverage
}

// handleDesigns implements GET /v1/designs: list the cached designs —
// id, size, hit count, age and idle time — most recently used first.
func (s *Server) handleDesigns(w http.ResponseWriter, _ *http.Request) {
	mDesignsRequests.Inc()
	stats := s.cache.stats()
	now := time.Now()
	resp := DesignsResponse{Designs: make([]DesignInfo, 0, len(stats))}
	if s.opts.CacheEntries > 0 {
		resp.Capacity = s.opts.CacheEntries
	}
	for _, st := range stats {
		resp.Designs = append(resp.Designs, DesignInfo{
			Design:      st.id,
			Nodes:       st.nodes,
			SourceBytes: st.sourceBytes,
			Hits:        st.hits,
			AgeMs:       now.Sub(st.created).Milliseconds(),
			IdleMs:      now.Sub(st.lastAccess).Milliseconds(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth implements GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		Model:         s.opts.ModelInfo,
		Version:       obs.GitDescribe(),
		UptimeMs:      time.Since(s.start).Milliseconds(),
		CachedDesigns: s.cache.len(),
		Inflight:      s.admit.inflight.Load(),
	}
	status := http.StatusOK
	if s.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// itoa32 formats an int32 target id for error messages.
func itoa32(v int32) string {
	return strconv.Itoa(int(v))
}
