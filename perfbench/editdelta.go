package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/circuitgen"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/opi"
	"repro/internal/scoap"
	"repro/internal/serve"
)

// editDelta is the edit loop: each of two clients owns one design compiled
// during set-up and sends a fixed number of POST /v1/score/delta requests,
// each inserting 1-4 observation points and chaining the returned design
// id. An edit touches only a D-hop frontier, so the O(N)-per-edit work
// around it (CSR rebuild, levels, ranking and encoding all N scores) is
// what this workload exposes. The count is fixed so the designs grow the
// same way on every run.
type editDelta struct {
	texts []string
	refs  [][]float64 // library scores of each base design
	thr   []float64
	cells []int       // cells of each base design
	edits [][][]int32 // per client: edits[c][0] is the warm-up delta
	ids   []string    // per client: the newest design id on the live server
	done  []int       // per client: edits the live server has applied
	final [][]float64 // per client: scores of the last measured response
}

func (w *editDelta) clients() int      { return 2 }
func (w *editDelta) cacheEntries() int { return 2 }

func (w *editDelta) requests() any {
	return map[string]any{"endpoint": "POST /v1/score/delta", "per_client": len(w.edits[0]) - 1,
		"targets_per_request": "1-4", "thresholds": w.thr}
}

// perClient is the fixed number of measured deltas per client for a run
// of the given length.
func (w *editDelta) perClient(b *bench, seconds float64) int {
	return int(math.Max(1, math.Ceil(float64(b.cfg.Sizes.DeltasPerSec)*seconds)))
}

func (w *editDelta) prepare(b *bench) error {
	// Every client owns a copy of the fixed circuitgen.OPIBench design; a
	// leading comment makes each copy a design of its own on the server.
	// The seed draws the edits, so a run's cost does not hang on the cone
	// structure of whichever designs a seed would generate.
	nc := b.clients
	nets := make([]*netlist.Netlist, nc)
	for c := 0; c < nc; c++ {
		name := fmt.Sprintf("delta%d", c)
		text, err := b.writeBench(name, circuitgen.Generate("delta", circuitgen.OPIBench(b.cfg.Sizes.DeltaGates)))
		if err != nil {
			return err
		}
		w.texts = append(w.texts, fmt.Sprintf("# client %d\n", c)+text)
	}
	w.refs = make([][]float64, nc)
	if err := parallel(nc, func(c int) error {
		n, _, g, err := compileText(w.texts[c])
		if err != nil {
			return err
		}
		nets[c] = n
		w.refs[c] = b.model.Clone().PredictProbs(g)
		return nil
	}); err != nil {
		return err
	}
	count := w.perClient(b, b.cfg.Seconds) + 1
	for c, n := range nets {
		w.thr = append(w.thr, threshold(w.refs[c]))
		w.cells = append(w.cells, n.NumGates())
		var cands []int32
		for v := int32(0); v < int32(n.NumGates()); v++ {
			switch n.Type(v) {
			case netlist.Input, netlist.Output, netlist.Obs:
			default:
				cands = append(cands, v)
			}
		}
		rng := rand.New(rand.NewSource(b.cfg.Seed*16 + 12 + int64(c)))
		order := rng.Perm(len(cands))
		var seq [][]int32
		for len(seq) < count {
			k := 1 + rng.Intn(4)
			if len(order) < k {
				return fmt.Errorf("design %d has too few insertable cells for %d deltas", c, count)
			}
			var ts []int32
			for _, j := range order[:k] {
				ts = append(ts, cands[j])
			}
			order = order[k:]
			seq = append(seq, ts)
		}
		w.edits = append(w.edits, seq)
	}
	return nil
}

// applyDelta applies one delta's targets with the serving layer's recipe:
// levels copied once per request, then opi.InsertAndRefresh per target.
// It returns the dirty attribute rows for the incremental update.
func applyDelta(n *netlist.Netlist, meas *scoap.Measures, g *core.Graph, targets []int32, r map[string]float64) ([]int32, error) {
	t := time.Now()
	lv := append([]int32(nil), n.Levels()...)
	r["netlist.levels_ms"] += ms(t)
	t = time.Now()
	var dirty []int32
	for _, tg := range targets {
		_, touched, err := opi.InsertAndRefresh(n, meas, g, tg, lv)
		if err != nil {
			return nil, err
		}
		lv = append(lv, lv[tg]+1)
		dirty = append(dirty, touched...)
	}
	r["opi.insert_refresh_ms"] += ms(t)
	r["opi.dirty_rows"] += float64(len(dirty))
	return dirty, nil
}

// head reads the design id and node count from a score response without
// decoding its score array.
func head(body []byte) (string, int, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return "", 0, errors.New("response is not a JSON object")
	}
	var design string
	nodes, have := 0, 0
	for have < 2 && dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return "", 0, err
		}
		switch tok {
		case "design":
			err = dec.Decode(&design)
			have++
		case "nodes":
			err = dec.Decode(&nodes)
			have++
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return "", 0, err
		}
	}
	if have < 2 {
		return "", 0, errors.New("response lacks design or nodes")
	}
	return design, nodes, nil
}

func (w *editDelta) warm(b *bench, s *liveServer) error {
	nc := len(w.texts)
	w.ids, w.done, w.final = make([]string, nc), make([]int, nc), make([][]float64, nc)
	return parallel(nc, func(c int) error {
		var buf bytes.Buffer
		body, err := json.Marshal(serve.ScoreRequest{Netlist: w.texts[c], Threshold: w.thr[c]})
		if err != nil {
			return err
		}
		status, _, err := s.post("/v1/score", body, &buf)
		var r serve.ScoreResponse
		if classify(status, err) != ok || json.Unmarshal(buf.Bytes(), &r) != nil || !equalFloats(r.Scores, w.refs[c]) {
			return fmt.Errorf("warm-up score of design %d: status %d, err %v", c, status, err)
		}
		w.ids[c] = r.Design
		status, _, err = w.send(s, c, 0, &buf)
		if classify(status, err) != ok {
			return fmt.Errorf("warm-up delta of design %d: status %d, err %v", c, status, err)
		}
		id, _, err := head(buf.Bytes())
		if err != nil {
			return err
		}
		w.ids[c], w.done[c] = id, 1
		return nil
	})
}

// send posts client c's k-th delta against its newest design id.
func (w *editDelta) send(s *liveServer, c, k int, buf *bytes.Buffer) (int, time.Duration, error) {
	body, err := json.Marshal(serve.DeltaRequest{Design: w.ids[c], Observe: w.edits[c][k], Threshold: w.thr[c]})
	if err != nil {
		return 0, 0, err
	}
	return s.post("/v1/score/delta", body, buf)
}

// nodesAfter is the design size once client c's first k deltas applied.
func (w *editDelta) nodesAfter(c, k int) int {
	n := w.cells[c]
	for _, e := range w.edits[c][:k] {
		n += len(e)
	}
	return n
}

func (w *editDelta) drive(b *bench, s *liveServer, seconds float64) *tally {
	per := w.perClient(b, seconds)
	bufs := make([]bytes.Buffer, len(w.texts))
	return closedLoop(len(w.texts), per, 0, func(c, i int) (time.Duration, outcome, bool) {
		k := w.done[c]
		status, lat, err := w.send(s, c, k, &bufs[c])
		o := classify(status, err)
		if o != ok {
			return lat, o, true // the chain cannot continue past a lost edit
		}
		id, nodes, err := head(bufs[c].Bytes())
		if err != nil || nodes != w.nodesAfter(c, k+1) {
			return lat, incorrect, true
		}
		w.ids[c], w.done[c] = id, k+1
		if i == per-1 {
			var r serve.ScoreResponse
			if json.Unmarshal(bufs[c].Bytes(), &r) != nil {
				return lat, incorrect, true
			}
			w.final[c] = r.Scores
		}
		return lat, ok, false
	})
}

// fullPassTolerance bounds how far the served scores may drift from a
// fresh full pass over the same edits. The incremental session adds each
// neighbour as (w·v)·x where the full pass scales the neighbour sum, so
// the two differ in the last bits (at most 4.4e-16 measured after 80
// edits of a 35.7k-cell design). The served scores must still be == a
// library replay of the same incremental session.
const fullPassTolerance = 1e-12

// verify replays each chain's edits through a library incremental session,
// whose scores must be == the last served ones, and compares a fresh full
// pass over the same edits within fullPassTolerance.
func (w *editDelta) verify(b *bench, t *tally) error {
	wrong := make([]bool, len(w.texts))
	err := parallel(len(w.texts), func(c int) error {
		if w.final[c] == nil {
			return nil // the chain broke; already counted
		}
		_, probs, g, err := w.chain(b, c, w.done[c]-1, false)
		if err != nil {
			return err
		}
		full := b.model.Clone().PredictProbs(g)
		wrong[c] = !equalFloats(probs, w.final[c]) || maxAbsDiff(full, w.final[c]) > fullPassTolerance
		return nil
	})
	for _, bad := range wrong {
		if bad {
			t.markIncorrect()
		}
	}
	return err
}

// replay replays exactly the deltas the preceding drive sent, in two
// goroutines like the live clients, so each chain's final scores must be
// == the live server's.
func (w *editDelta) replay(b *bench, seconds float64) ([]layerRec, error) {
	per := w.perClient(b, seconds)
	out := make([][]layerRec, len(w.texts))
	err := parallel(len(w.texts), func(c int) error {
		recs, probs, _, err := w.chain(b, c, per, true)
		if err != nil {
			return err
		}
		if w.done[c] != per+1 || !equalFloats(probs, w.final[c]) {
			recs[len(recs)-1].ok = false
		}
		out[c] = recs
		return nil
	})
	if err != nil {
		return nil, err
	}
	var recs []layerRec
	for _, o := range out {
		recs = append(recs, o...)
	}
	return recs, nil
}

// chain applies client c's warm-up delta and its next k deltas to a
// library copy of its design the way the server does, timing every layer
// of each of the k deltas. With respond set it also builds and encodes each
// delta's response, as the server does. It returns one record per delta
// and the final scores and graph.
func (w *editDelta) chain(b *bench, c, k int, respond bool) ([]layerRec, []float64, *core.Graph, error) {
	m := b.model.Clone()
	n, meas, g, err := compileText(w.texts[c])
	if err != nil {
		return nil, nil, nil, err
	}
	st := m.ForwardFull(g)
	scratch := map[string]float64{}
	dirty, err := applyDelta(n, meas, g, w.edits[c][0], scratch)
	if err != nil {
		return nil, nil, nil, err
	}
	incrementalUpdate(m, st, g, dirty, scratch)
	var recs []layerRec
	for i := 1; i <= k; i++ {
		r := newRec()
		v := r.v
		wall := time.Now()
		targets := w.edits[c][i]
		dirty, err := applyDelta(n, meas, g, targets, v)
		if err != nil {
			return nil, nil, nil, err
		}
		incrementalUpdate(m, st, g, dirty, v)
		if !respond {
			continue
		}

		t := time.Now()
		scores := append([]float64(nil), st.Probs...)
		inserted := make([]serve.NodeScore, len(targets))
		for j, tg := range targets {
			inserted[j] = serve.NodeScore{ID: tg, Name: n.Gate(tg).Name, Score: scores[tg]}
		}
		diff := difficult(n, scores, w.thr[c])
		v["serve.rank_ms"] = ms(t)

		t = time.Now()
		_, err = json.Marshal(serve.ScoreResponse{Design: w.ids[c], Nodes: n.NumGates(), Scores: scores,
			Difficult: diff, Cached: true, Updated: len(dirty), Inserted: inserted})
		if err != nil {
			return nil, nil, nil, err
		}
		v["serve.encode_ms"] = ms(t)
		r.wall = ms(wall)
		for _, k := range []string{"netlist.levels_ms", "opi.insert_refresh_ms", "core.csr_rebuild_ms",
			"core.incremental_update_ms", "serve.rank_ms", "serve.encode_ms"} {
			r.path += v[k]
		}
		recs = append(recs, r)
	}
	return recs, st.Probs, g, nil
}
