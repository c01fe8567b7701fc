package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/nn"
	"repro/internal/scoap"
	"repro/internal/serve"
)

// scoreCold is the paper's inference workload: one client submits
// never-seen designs to POST /v1/score. A leading comment makes every
// request's text unique, so the design cache always misses and the
// batcher never coalesces; each request pays parse, SCOAP, graph build and
// a full forward pass.
type scoreCold struct {
	texts []string    // the seed's pool of designs, as .bench text
	refs  [][]float64 // library Model.PredictProbs per pool design
	thr   []float64
	want  []int    // difficult-list length per pool design
	tmpl  [][]byte // request body per pool design, with a tag placeholder
	off   []int    // offset of the tag digits in tmpl
}

// coldTag is the leading comment that makes each request unique; its
// digits are overwritten with the request number.
const coldTag = "# req 00000000\n"

// coldWarmID numbers the warm-up requests apart from the measured ones.
const coldWarmID = 90000000

func (w *scoreCold) clients() int { return 1 }

// cacheEntries: the two warm-up designs fill the cache, so every measured
// request evicts one design and the heap is in steady state.
func (w *scoreCold) cacheEntries() int { return 2 }

func (w *scoreCold) requests() any {
	return map[string]any{"endpoint": "POST /v1/score", "pool": len(w.texts), "thresholds": w.thr}
}

func (w *scoreCold) prepare(b *bench) error {
	k := b.cfg.Sizes.ColdPool
	for i := 0; i < k; i++ {
		cfg := circuitgen.Config{Seed: b.cfg.Seed*16 + int64(i), NumGates: b.cfg.Sizes.ColdGates}
		name := fmt.Sprintf("cold%d", i)
		text, err := b.writeBench(name, circuitgen.Generate(name, cfg))
		if err != nil {
			return err
		}
		w.texts = append(w.texts, text)
	}
	w.refs = make([][]float64, k)
	if err := parallel(k, func(i int) error {
		_, _, g, err := compileText(w.texts[i])
		if err != nil {
			return err
		}
		w.refs[i] = b.model.Clone().PredictProbs(g)
		return nil
	}); err != nil {
		return err
	}
	for i, ref := range w.refs {
		thr := threshold(ref)
		want := 0
		for _, p := range ref {
			if p >= thr {
				want++
			}
		}
		body, err := json.Marshal(serve.ScoreRequest{Netlist: coldTag + w.texts[i], Threshold: thr})
		if err != nil {
			return err
		}
		w.thr = append(w.thr, thr)
		w.want = append(w.want, want)
		w.tmpl = append(w.tmpl, body)
		w.off = append(w.off, bytes.Index(body, []byte("# req "))+len("# req "))
	}
	return nil
}

// compileText is the library path the server's compile takes: parse,
// validate, SCOAP, graph.
func compileText(text string) (*netlist.Netlist, *scoap.Measures, *core.Graph, error) {
	n, err := netlist.Read(strings.NewReader(text))
	if err != nil {
		return nil, nil, nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, nil, nil, err
	}
	meas := scoap.Compute(n)
	return n, meas, core.FromNetlist(n, meas), nil
}

func (w *scoreCold) body(pool, id int) []byte {
	body := append([]byte(nil), w.tmpl[pool]...)
	copy(body[w.off[pool]:], fmt.Sprintf("%08d", id))
	return body
}

// check compares a response with the library reference: every score ==.
func (w *scoreCold) check(body []byte, pool int) bool {
	var r serve.ScoreResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return false
	}
	return !r.Cached && r.Nodes == len(w.refs[pool]) && len(r.Difficult) == w.want[pool] &&
		equalFloats(r.Scores, w.refs[pool])
}

func (w *scoreCold) warm(b *bench, s *liveServer) error {
	var buf bytes.Buffer
	for i := 0; i < b.opts.CacheEntries; i++ {
		p := i % len(w.texts)
		status, _, err := s.post("/v1/score", w.body(p, coldWarmID+i), &buf)
		if classify(status, err) != ok || !w.check(buf.Bytes(), p) {
			return fmt.Errorf("warm-up score: status %d, err %v", status, err)
		}
	}
	return nil
}

func (w *scoreCold) drive(b *bench, s *liveServer, seconds float64) *tally {
	var buf bytes.Buffer
	return closedLoop(1, 0, seconds, func(_, i int) (time.Duration, outcome, bool) {
		p := i % len(w.texts)
		status, lat, err := s.post("/v1/score", w.body(p, i), &buf)
		o := classify(status, err)
		if o == ok && !w.check(buf.Bytes(), p) {
			o = incorrect
		}
		return lat, o, false
	})
}

func (w *scoreCold) verify(*bench, *tally) error { return nil } // every answer was checked inline

// replay times each layer of the compile path for one request at a time,
// then breaks a forward pass on the same graph into its stages and checks
// that the staged logits are == Model.Forward's.
func (w *scoreCold) replay(b *bench, seconds float64) ([]layerRec, error) {
	m := b.model.Clone()
	st := newStager(m)
	var recs []layerRec
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		p := i % len(w.texts)
		text := fmt.Sprintf("# req %08d\n", i) + w.texts[p]
		r := newRec()
		v := r.v
		// Each replayed request starts from a collected heap, as does the
		// forward pair below: the pair allocates several times what the
		// request does, and its garbage would otherwise slow whichever
		// timed step the collector runs beside.
		runtime.GC()
		wall := time.Now()

		t := time.Now()
		n, err := netlist.Read(strings.NewReader(text))
		if err == nil {
			err = n.Validate()
		}
		if err != nil {
			return nil, err
		}
		v["netlist.read_ms"] = ms(t)

		t = time.Now()
		meas := scoap.Compute(n)
		v["scoap.compute_ms"] = ms(t)

		t = time.Now()
		g := core.FromNetlist(n, meas)
		g.Pred()
		g.Succ()
		v["core.graph_build_ms"] = ms(t)

		a0 := readMetric("/gc/heap/allocs:bytes")
		t = time.Now()
		run := m.NewIncremental(g)
		v["core.forward_full_ms"] = ms(t)
		v["core.forward_alloc_mb"] = float64(readMetric("/gc/heap/allocs:bytes")-a0) / 1e6

		t = time.Now()
		scores := append([]float64(nil), run.Probs()...)
		diff := difficult(n, scores, w.thr[p])
		v["serve.rank_ms"] = ms(t)

		t = time.Now()
		_, err = json.Marshal(serve.ScoreResponse{Design: strings.Repeat("0", 64), Nodes: n.NumGates(), Scores: scores, Difficult: diff})
		if err != nil {
			return nil, err
		}
		v["serve.encode_ms"] = ms(t)
		r.wall = ms(wall)
		for _, k := range []string{"netlist.read_ms", "scoap.compute_ms", "core.graph_build_ms",
			"core.forward_full_ms", "serve.rank_ms", "serve.encode_ms"} {
			r.path += v[k]
		}
		r.ok = equalFloats(scores, w.refs[p]) && len(diff) == w.want[p]

		// Alternate which of the pair runs first so neither always finds
		// the caches the other warmed.
		runtime.GC()
		var want, got []float64
		forward := func() {
			t := time.Now()
			want = append([]float64(nil), m.Forward(g).Data...)
			v["core.forward_ms"] = ms(t)
		}
		staged := func() {
			logits := st.forward(g, v)
			t := time.Now()
			nn.Softmax(logits)
			v["nn.softmax_ms"] = ms(t)
			got = logits.Data
		}
		if i%2 == 0 {
			forward()
			staged()
		} else {
			staged()
			forward()
		}
		r.ok = r.ok && equalFloats(got, want)
		recs = append(recs, r)
	}
	return recs, nil
}
