package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. One that belongs to
// the default registry records only while Enabled(): the switch is read here,
// inside the instrument, so call sites hold a handle and call it bare.
type Counter struct {
	v     atomic.Int64
	gated bool
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 && (!c.gated || enabled.Load()) {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry is a concurrency-safe collection of named metrics. Metric
// accessors are get-or-create; an instrumentation site calls one once, in a
// package-level var next to the code that owns the fact, and keeps the handle,
// so the request path neither locks nor hashes and cannot mint a name. Names
// are slash-separated paths like "server/request_seconds".
type Registry struct {
	gated    bool // instruments record only while Enabled(): the default registry
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry whose instruments always record.
func NewRegistry() *Registry { return newRegistry(false) }

func newRegistry(gated bool) *Registry {
	return &Registry{
		gated:    gated,
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// defaultRegistry backs the package-level helpers and the debug server.
var defaultRegistry = newRegistry(true)

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{gated: r.gated}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		h.gated = r.gated
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every metric in place, so a handle taken before it still
// reaches the registry after it. Intended for tests and for the start of
// independent benchmark runs, not for use beside concurrent writers.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Snapshot is a point-in-time JSON-friendly view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}

// Cumulative reads every counter's value and every histogram's bucket counts
// at one instant: the state a time window subtracts from the live one.
func (r *Registry) Cumulative() (counters map[string]int64, hists map[string]Buckets) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	counters = make(map[string]int64, len(r.counters))
	hists = make(map[string]Buckets, len(r.hists))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	for name, h := range r.hists {
		hists[name] = h.Buckets()
	}
	return counters, hists
}
