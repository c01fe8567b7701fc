package obs

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// node is one aggregation point in the live span tree. Spans with the
// same name under the same parent merge into a single node.
type node struct {
	name string

	mu       sync.Mutex
	count    int64
	wallNS   int64
	allocB   int64
	children map[string]*node
}

// child finds or creates the named child node; safe for concurrent use.
func (n *node) child(name string) *node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.children == nil {
		n.children = map[string]*node{}
	}
	c, ok := n.children[name]
	if !ok {
		c = &node{name: name}
		n.children[name] = c
	}
	return c
}

// record merges one completed span occurrence into the node.
func (n *node) record(wall time.Duration, allocBytes int64) {
	n.mu.Lock()
	n.count++
	n.wallNS += int64(wall)
	n.allocB += allocBytes
	n.mu.Unlock()
}

// snapshotChildren deep-copies the subtree below n with children sorted
// by name; the caller holds no lock on descendants, so each node locks
// itself briefly.
func (n *node) snapshotChildren() []*SpanNode {
	n.mu.Lock()
	kids := make([]*node, 0, len(n.children))
	for _, c := range n.children {
		kids = append(kids, c)
	}
	n.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool { return kids[i].name < kids[j].name })
	out := make([]*SpanNode, 0, len(kids))
	for _, c := range kids {
		c.mu.Lock()
		sn := &SpanNode{Name: c.name, Count: c.count, WallNS: c.wallNS, AllocBytes: c.allocB}
		c.mu.Unlock()
		sn.Children = c.snapshotChildren()
		out = append(out, sn)
	}
	return out
}

// SpanNode is the serialized form of one span aggregation point: how
// many times the span ran, its total wall time, the process-wide
// allocation delta observed across its executions, and its children
// sorted by name.
type SpanNode struct {
	// Name is the span's name segment (unique among siblings).
	Name string `json:"name"`
	// Count is how many times a span with this path completed.
	Count int64 `json:"count"`
	// WallNS is the total wall-clock time across all completions, in
	// nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// AllocBytes is the total heap-allocation delta (runtime TotalAlloc
	// at End minus at start, summed). It is process-wide: allocations by
	// concurrent goroutines are attributed to whichever spans are open.
	AllocBytes int64 `json:"alloc_bytes"`
	// Children holds nested spans, sorted by name.
	Children []*SpanNode `json:"children,omitempty"`
}

// Find returns the descendant with the given slash-separated path below
// n (e.g. "epoch/worker"), or nil.
func (n *SpanNode) Find(path string) *SpanNode {
	cur := n
	for _, seg := range strings.Split(path, "/") {
		var next *SpanNode
		for _, c := range cur.Children {
			if c.Name == seg {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// Span is a live timing span. A nil *Span (returned whenever
// instrumentation is disabled) is valid: all methods are no-ops, so
// callers never branch on Enabled themselves.
type Span struct {
	n          *node
	start      time.Time
	startAlloc uint64
	// tid is the trace timeline the span renders on (0 = main; training
	// workers get one each via ChildTID). path is the slash-joined span
	// path used as the trace event name; both are only populated while
	// tracing is on.
	tid  int64
	path string
}

// allocOff disables per-span runtime.ReadMemStats sampling when set
// (sampling stops the world briefly, so extremely span-dense workloads
// may turn it off via SetAllocSampling).
var allocOff atomic.Bool

// SetAllocSampling toggles per-span allocation-delta sampling (default
// on). Wall times and counts are unaffected.
func SetAllocSampling(on bool) { allocOff.Store(!on) }

// readAlloc returns the runtime's cumulative allocated-bytes figure, or
// 0 when sampling is off.
func readAlloc() uint64 {
	if allocOff.Load() {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// StartSpan opens a root-level span. Returns nil (a valid no-op span)
// while instrumentation is disabled; the disabled path performs one
// atomic load and allocates nothing.
func StartSpan(name string) *Span {
	if !enabled.Load() {
		return nil
	}
	s := &Span{n: reg.root.child(name), start: time.Now(), startAlloc: readAlloc()}
	if tracing.Load() {
		s.path = name
	}
	return s
}

// Child opens a nested span under s. Safe to call from multiple
// goroutines on the same parent. On a nil receiver it returns nil.
func (s *Span) Child(name string) *Span {
	return s.ChildTID(name, -1)
}

// ChildTID opens a nested span pinned to the given trace timeline
// (tid). The span tree is unaffected — tids only route the span onto
// its own row in the exported Chrome trace, one per training worker.
// A negative tid inherits the parent's. On a nil receiver returns nil.
func (s *Span) ChildTID(name string, tid int64) *Span {
	if s == nil {
		return nil
	}
	c := &Span{n: s.n.child(name), start: time.Now(), startAlloc: readAlloc()}
	if tid < 0 {
		tid = s.tid
	}
	c.tid = tid
	if tracing.Load() {
		if s.path != "" {
			c.path = s.path + "/" + name
		} else {
			c.path = name
		}
	}
	return c
}

// End closes the span, merging its wall time and allocation delta into
// the tree (and, when tracing, appending one timeline occurrence).
// No-op on a nil receiver. End must be called at most once.
func (s *Span) End() {
	if s == nil {
		return
	}
	var alloc int64
	if s.startAlloc != 0 {
		if end := readAlloc(); end > s.startAlloc {
			alloc = int64(end - s.startAlloc)
		}
	}
	dur := time.Since(s.start)
	s.n.record(dur, alloc)
	if s.path != "" && tracing.Load() {
		recordSpanTrace(s.path, s.tid, s.start, dur)
	}
}
