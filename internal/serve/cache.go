package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/scoap"
)

// design is one compiled, cached design: the parsed netlist, its SCOAP
// measures, the GCN graph, and a live incremental-inference session with
// warm cached embeddings. Every design scores with the server's one
// shared predictor; mu serializes all use of the bundle, which is
// mutated in place by /v1/score/delta.
type design struct {
	mu sync.Mutex

	// id is the design's current identity: the content hash for a fresh
	// design, a chained delta hash after edits (see deltaID).
	id string
	// source is the exact netlist text id was derived from; nil once the
	// design has diverged from any submittable text via deltas. The
	// cache compares it on content-hash lookups so that a hash collision
	// can never serve another design's scores.
	source []byte

	net  *netlist.Netlist
	meas *scoap.Measures
	g    *core.Graph
	run  core.IncrementalRun
	// scores holds the compile-time probabilities when the design was
	// scored through the float32 path and no incremental session exists
	// yet (run == nil); the first delta builds the session and drops it.
	scores []float64
	// text is the score text of the last delta response, from the first
	// delta on; the next delta re-formats only the rows that changed.
	text scoreText

	// Stats for GET /v1/designs. created is set before the design is
	// published; hits and lastAccess are guarded by the cache lock (they
	// are only touched inside designCache methods); nodes is atomic
	// because deltas update it under d.mu, which must never be acquired
	// after c.mu.
	created    time.Time
	lastAccess time.Time
	hits       int64
	nodes      atomic.Int64
}

// probs returns the design's current per-node probabilities: the live
// incremental session's when one exists, the f32 compile-time scores
// otherwise. Callers must hold the entry lock and treat the slice as
// read-only.
func (d *design) probs() []float64 {
	if d.run != nil {
		return d.run.Probs()
	}
	return d.scores
}

// ensureRun builds the float64 incremental session with pred on first
// need (the f32 compile path skips it; see Options.Float32Scoring).
// Callers must hold the entry lock. The session's full forward pass is
// exact float64, so delta updates keep the bit-identity contract.
func (d *design) ensureRun(pred core.IncrementalPredictor) {
	if d.run == nil {
		d.run = pred.NewIncremental(d.g)
		d.scores = nil
	}
}

// designCache is the warm LRU of compiled designs, keyed by the
// design id. Hitting it skips netlist parsing, SCOAP analysis and the
// full forward pass, and is what makes /v1/score/delta possible at all:
// the cached incremental session carries the layer embeddings that turn
// an edit into a D-hop-bounded update.
type designCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // id → element whose Value is *design
	order   *list.List               // front = most recently used
	// hasher derives a design id from netlist text; overridable in tests
	// to force collisions and prove the source-comparison guard.
	hasher func([]byte) string
}

func newDesignCache(capacity int) *designCache {
	return &designCache{
		cap:     capacity,
		entries: map[string]*list.Element{},
		order:   list.New(),
		hasher:  contentHash,
	}
}

// contentHash is the default design id: SHA-256 over the submitted
// netlist bytes, hex encoded.
func contentHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// deltaID chains a design id through an edit delta, so every sequence of
// edits yields a distinct, deterministic identity.
func deltaID(base string, targets []int32) string {
	h := sha256.New()
	h.Write([]byte(base))
	for _, t := range targets {
		h.Write([]byte{'+', byte(t), byte(t >> 8), byte(t >> 16), byte(t >> 24)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hash returns the design id for netlist text.
func (c *designCache) hash(b []byte) string { return c.hasher(b) }

// lookupSource finds a design by content hash, verifying that the stored
// netlist text matches the request byte-for-byte. A hash-equal entry
// with different text (a collision, or an id that has diverged through
// deltas) is reported as a miss — correctness never rests on the hash
// alone.
func (c *designCache) lookupSource(id string, body []byte) (*design, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[id]
	if !ok {
		mCacheMisses.Inc()
		return nil, false
	}
	d := el.Value.(*design)
	if d.source == nil || string(d.source) != string(body) {
		mCacheCollisions.Inc()
		mCacheMisses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	d.hits++
	d.lastAccess = time.Now()
	mCacheHits.Inc()
	return d, true
}

// lookupID finds a design by exact id (delta and OPI path). No source
// comparison applies: ids handed out by the server are authoritative.
func (c *designCache) lookupID(id string) (*design, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[id]
	if !ok {
		mCacheMisses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	d := el.Value.(*design)
	d.hits++
	d.lastAccess = time.Now()
	mCacheHits.Inc()
	return d, true
}

// insert adds a design under its current id, evicting the least recently
// used entries beyond capacity. Inserting over an existing id replaces
// it (the hash-collision overwrite path).
func (c *designCache) insert(d *design) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[d.id]; ok {
		c.order.Remove(el)
		delete(c.entries, d.id)
	}
	c.entries[d.id] = c.order.PushFront(d)
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*design).id)
		mCacheEvictions.Inc()
	}
}

// rekey atomically moves a design from its old id to a new one after a
// delta. The old id stops resolving, and the design no longer
// corresponds to any submittable netlist text, so its source is dropped.
// Callers must already hold the design's own lock (d.mu is always
// acquired before c.mu; never the reverse).
func (c *designCache) rekey(old, new string, d *design) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[old]; ok && el.Value.(*design) == d {
		delete(c.entries, old)
		c.entries[new] = el
		c.order.MoveToFront(el)
	}
	d.id = new
	d.source = nil
}

// idOf returns the design's current id under the cache lock; a delta may
// have rekeyed the design between a lookup and the caller locking it.
func (c *designCache) idOf(d *design) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return d.id
}

// len reports current occupancy.
func (c *designCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// designStat is one cached design's bookkeeping, snapshotted under the
// cache lock for GET /v1/designs.
type designStat struct {
	id          string
	nodes       int64
	sourceBytes int
	hits        int64
	created     time.Time
	lastAccess  time.Time
}

// stats snapshots every cached design in MRU order (most recently used
// first, matching the LRU list).
func (c *designCache) stats() []designStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]designStat, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		d := el.Value.(*design)
		out = append(out, designStat{
			id:          d.id,
			nodes:       d.nodes.Load(),
			sourceBytes: len(d.source),
			hits:        d.hits,
			created:     d.created,
			lastAccess:  d.lastAccess,
		})
	}
	return out
}
