package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"

	"repro/internal/par"
)

// This file writes the ScoreResponse of /v1/score and /v1/score/delta.
// The bytes are exactly what json.NewEncoder(w).Encode(resp) writes for
// the same response with Scores set, but the scores array is formatted
// here, straight from the design's probabilities: no response copies N
// floats first, and a delta re-formats only the rows whose probability
// changed.

// body is a response under construction. json.Encoder writes into it and
// the score writer appends to it directly; bodies are kept on a free
// list, so a steady-state response allocates no buffer of its own.
type body struct{ b []byte }

func (w *body) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var bodies = par.NewFree[body]()

// scoresNull is how encoding/json writes ScoreResponse's nil Scores
// field; the writer splices the scores array in its place.
var scoresNull = []byte(`"scores":null`)

// scoreText is a design's kept score text: the scores array of its last
// delta response, the offset where each row's number starts in it, and
// the float64 bits each row was formatted from. The next delta copies
// the rows whose bits are unchanged and formats only the others. Callers
// hold the design lock.
type scoreText struct {
	resp *body    // the last delta response; text aliases its buffer
	text []byte   // the scores array, '[' through ']'
	off  []int32  // off[i]: where row i's number starts in text
	bits []uint64 // the bits row i was formatted from
}

// encode returns the delta response for resp with the scores array
// formatted from probs, reusing the kept text, and keeps the new text
// for the next delta. The bytes stay valid until that delta.
func (t *scoreText) encode(resp *ScoreResponse, probs []float64) ([]byte, error) {
	next := bodies.Get()
	out, lo, hi, err := appendScoreResponse(next.b[:0], resp, probs, t)
	next.b = out
	if err != nil {
		// The offsets may be half updated: start over on the next delta.
		t.off, t.bits = t.off[:0], t.bits[:0]
		bodies.Put(next)
		return nil, err
	}
	if t.resp != nil {
		bodies.Put(t.resp)
	}
	t.resp, t.text = next, out[lo:hi]
	return out, nil
}

// appendScoreResponse appends resp, with its scores formatted from probs
// (resp.Scores must be nil), to b as json.Encoder.Encode writes it, and
// returns the result and where the scores array starts and ends in it.
// With a kept text t, rows are copied from it where their bits match, and
// t's offsets and bits are updated to describe the new array. The error
// is non-nil, and nothing was kept, when a score is not finite or the
// response cannot be encoded.
func appendScoreResponse(b []byte, resp *ScoreResponse, probs []float64, t *scoreText) ([]byte, int, int, error) {
	rest := bodies.Get()
	defer bodies.Put(rest)
	rest.b = rest.b[:0]
	if err := json.NewEncoder(rest).Encode(resp); err != nil {
		return b, 0, 0, err
	}
	i := bytes.Index(rest.b, scoresNull) + len(`"scores":`)
	b = append(b, rest.b[:i]...)
	lo := len(b)
	if len(probs) == 0 {
		// A zero-cell design's scores encode as null, as they always have.
		b = append(b, "null"...)
	} else {
		var err error
		if b, err = appendScores(b, probs, t); err != nil {
			return b, 0, 0, err
		}
	}
	hi := len(b)
	return append(b, rest.b[i+len("null"):]...), lo, hi, nil
}

// appendScores appends the JSON array of probs to b. With a kept text t,
// each run of rows whose bits equal t's is copied from t.text in one
// piece, commas included, and t.off and t.bits are rewritten in the same
// pass to describe the new array: a row's old offset is read before it
// is overwritten.
func appendScores(b []byte, probs []float64, t *scoreText) ([]byte, error) {
	start := len(b)
	b = append(b, '[')
	kept := 0
	if t != nil {
		kept = min(len(t.bits), len(probs))
	}
	for i := 0; i < len(probs); {
		if i > 0 {
			b = append(b, ',')
		}
		if i < kept && math.Float64bits(probs[i]) == t.bits[i] {
			j := i + 1
			for j < kept && math.Float64bits(probs[j]) == t.bits[j] {
				j++
			}
			from, to := t.off[i], int32(len(t.text)-1) // to: the ']'
			if j < len(t.bits) {
				to = t.off[j] - 1 // the comma before row j
			}
			shift := int32(len(b)-start) - from
			for k := i; k < j; k++ {
				t.off[k] += shift
			}
			b = append(b, t.text[from:to]...)
			i = j
			continue
		}
		f := probs[i]
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, errors.New("score of cell " + strconv.Itoa(i) + " is " + strconv.FormatFloat(f, 'g', -1, 64))
		}
		if t != nil {
			at, bits := int32(len(b)-start), math.Float64bits(f)
			if i < len(t.bits) {
				t.off[i], t.bits[i] = at, bits
			} else {
				t.off, t.bits = append(t.off, at), append(t.bits, bits)
			}
		}
		b = appendFloat(b, f)
		i++
	}
	if t != nil {
		t.off, t.bits = t.off[:len(probs)], t.bits[:len(probs)]
	}
	return append(b, ']'), nil
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest representation in 'f' form, or in 'e' form when |f| < 1e-6
// or |f| >= 1e21, with a two-digit negative exponent such as e-07
// cleaned to e-7.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// writeBody sends an encoded response in one write, as json.Encoder
// does.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}
