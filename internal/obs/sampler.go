package obs

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxKeptTraces bounds the in-memory store of tail-sampled traces backing
// /tracez and the slow-query log read from it.
const maxKeptTraces = 128

// TraceRecord is one kept trace: the finished root span tree plus the tail
// sampler's verdict. It is the unit of /tracez listing and JSONL export.
type TraceRecord struct {
	TraceID    string       `json:"trace_id"`
	Verdict    string       `json:"verdict"` // "error" | "degraded" | "slow" | "forced" | "sampled"
	DurationMS float64      `json:"duration_ms"`
	Root       SpanSnapshot `json:"root"`
}

// TraceSink receives kept traces, e.g. the JSONL exporter. ExportTrace is
// called synchronously from Span.End of a sampled root span and must be safe
// for concurrent use.
type TraceSink interface {
	ExportTrace(rec TraceRecord) error
}

// TracingConfig tunes tail-based trace sampling. The decision is made when a
// root span finishes, with the whole tree in hand:
//
//   - traces containing an errored span are always kept ("error");
//   - traces containing a degraded span are always kept ("degraded");
//   - traces at or over SlowThreshold are always kept ("slow");
//   - traces whose incoming traceparent carried the sampled flag are always
//     kept ("forced");
//   - the remaining healthy traces are kept with probability SampleRate
//     ("sampled") and dropped otherwise.
type TracingConfig struct {
	// SampleRate is the fraction of healthy traces kept, in [0, 1].
	SampleRate float64
	// SlowThreshold is the duration at or above which a trace is always
	// kept. Zero disables the slow class.
	SlowThreshold time.Duration
	// Exporter, when non-nil, receives every kept trace.
	Exporter TraceSink
}

var traceState atomic.Pointer[TracingConfig]

// The tail sampler's two counts: roots it let go (its only count — kept roots
// are the ring, /tracez) and kept roots the exporter failed to write.
var (
	traceDropped      = Default().Counter("obs/trace/dropped")
	traceExportErrors = Default().Counter("obs/trace/export_errors")
)

// ConfigureTracing installs the tail sampling policy (and optional exporter)
// process-wide and enables observability. Passing a new config replaces the
// old one atomically; in-flight decisions use whichever config they loaded.
func ConfigureTracing(cfg TracingConfig) {
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	SetEnabled(true)
	traceState.Store(&cfg)
}

// DisableTracing removes the sampling policy: root spans are no longer
// retained for /tracez or exported. Metric and span recording (Enabled) is
// left untouched.
func DisableTracing() { traceState.Store(nil) }

// tracingConfigured returns the active tail-sampling config, or false when
// tracing is off.
func tracingConfigured() (TracingConfig, bool) {
	cfg := traceState.Load()
	if cfg == nil {
		return TracingConfig{}, false
	}
	return *cfg, true
}

// tailConsider runs the tail-sampling decision for a finished root span.
func tailConsider(s *Span) {
	cfg := traceState.Load()
	if cfg == nil {
		return
	}
	d := s.Duration()
	errMsg, degraded := s.status()
	s.mu.Lock()
	forced := s.forced
	s.mu.Unlock()
	var verdict string
	switch {
	case errMsg != "":
		verdict = "error"
	case degraded != "":
		verdict = "degraded"
	case cfg.SlowThreshold > 0 && d >= cfg.SlowThreshold:
		verdict = "slow"
	case forced:
		verdict = "forced"
	case cfg.SampleRate > 0 && rand.Float64() < cfg.SampleRate:
		verdict = "sampled"
	default:
		traceDropped.Inc()
		return
	}
	rec := TraceRecord{
		TraceID:    s.traceID.String(),
		Verdict:    verdict,
		DurationMS: float64(d) / float64(time.Millisecond),
		Root:       s.Snapshot(),
	}
	traceKeep.add(rec)
	if cfg.Exporter != nil {
		if err := cfg.Exporter.ExportTrace(rec); err != nil {
			// Counted drop, rate-limited warning: a full disk fails every
			// export, and one warning per trace would turn the log into the
			// second full disk.
			traceExportErrors.Inc()
			if exportWarn.Allow(exportWarnEvery) {
				Logger().Warn("trace export failed (dropping; see obs/trace/export_errors)",
					"trace_id", rec.TraceID, "err", err)
			}
		}
	}
}

// exportWarn rate-limits export-failure warnings to one per exportWarnEvery;
// the counter stays exact.
var exportWarn warnLimiter

const exportWarnEvery = 10 * time.Second

// warnLimiter limits the log lines about one recurring condition (a full disk
// fails every trace export) to one per interval: the noise, never the numbers.
type warnLimiter struct {
	last atomic.Int64 // unix nanos of the last emitted warning
}

// Allow reports whether a warning may be emitted now and, if so, claims the
// slot. Concurrent callers race for one slot per interval; losers stay silent.
func (w *warnLimiter) Allow(interval time.Duration) bool {
	now := time.Now().UnixNano()
	last := w.last.Load()
	return now-last >= int64(interval) && w.last.CompareAndSwap(last, now)
}

// maxParkedAmends bounds the amendments held for traces that have not ended
// yet (see AmendTrace); the oldest is overwritten first.
const maxParkedAmends = 32

// traceRing is a fixed-size circular buffer of kept traces, plus a smaller one
// of amendments that arrived before their trace did.
type traceRing struct {
	mu   sync.Mutex
	buf  [maxKeptTraces]TraceRecord
	next int
	n    int

	parked   [maxParkedAmends]parkedAmend
	parkNext int // oldest parked slot, the next one overwritten
}

type parkedAmend struct {
	id string
	ev SpanEvent
}

var traceKeep = &traceRing{}

func (r *traceRing) add(rec TraceRecord) {
	r.mu.Lock()
	for i := range r.parked {
		if p := &r.parked[(r.parkNext+i)%maxParkedAmends]; p.id == rec.TraceID {
			rec.Root.Events = append(rec.Root.Events, p.ev)
			*p = parkedAmend{}
		}
	}
	r.buf[r.next] = rec
	r.next = (r.next + 1) % maxKeptTraces
	if r.n < maxKeptTraces {
		r.n++
	}
	r.mu.Unlock()
}

// KeptTraces returns the tail-sampled traces, newest first.
func KeptTraces() []TraceRecord {
	traceKeep.mu.Lock()
	defer traceKeep.mu.Unlock()
	out := make([]TraceRecord, 0, traceKeep.n)
	for i := 1; i <= traceKeep.n; i++ {
		idx := traceKeep.next - i
		if idx < 0 {
			idx += maxKeptTraces
		}
		out = append(out, traceKeep.buf[idx])
	}
	return out
}

// KeptTrace returns the kept trace with the given hex trace ID.
func KeptTrace(id string) (TraceRecord, bool) {
	for _, rec := range KeptTraces() {
		if rec.TraceID == id {
			return rec, true
		}
	}
	return TraceRecord{}, false
}

// AmendTrace appends an event to the root span of an already-kept trace, so
// late-arriving facts about a finished request — a shadow-audit verdict, a
// delayed downstream acknowledgement — become visible on the trace in
// /tracez. The amendment is in-memory only: it reaches the traceRing record
// (and anything snapshotted from it afterwards) but not a JSONL export that
// already happened at span end; offline joins use the amending subsystem's
// own span attributes instead.
//
// It returns true when the event is on the kept trace now. False means only
// "not yet": the trace is not (or no longer) in the kept ring. That covers
// tail-dropped and evicted traces, which are not addressable and lose the
// event, and a trace that has not ended yet (a background audit can outrun
// the response write of the request it audits). The caller cannot tell these
// apart, so every missed amendment is parked, bounded by maxParkedAmends
// (oldest overwritten), and lands if its trace is kept later.
func AmendTrace(id string, ev SpanEvent) bool {
	if id == "" {
		return false
	}
	traceKeep.mu.Lock()
	defer traceKeep.mu.Unlock()
	for i := 0; i < traceKeep.n; i++ {
		idx := traceKeep.next - 1 - i
		if idx < 0 {
			idx += maxKeptTraces
		}
		if traceKeep.buf[idx].TraceID == id {
			root := &traceKeep.buf[idx].Root
			// Snapshots share their Events backing array with nothing (each
			// Snapshot copies), so appending here is safe.
			root.Events = append(root.Events, ev)
			return true
		}
	}
	traceKeep.parked[traceKeep.parkNext] = parkedAmend{id, ev}
	traceKeep.parkNext = (traceKeep.parkNext + 1) % maxParkedAmends
	return false
}

// SlowQueryStats aggregates the kept traces of one canonical SQL text (the
// root span's "sql" attribute): how often the query appears among them, how
// slow it got, and the trace ID of its most recent appearance — the /tracez
// jumping-off point from "this query is slow" to "here is exactly what it
// did".
type SlowQueryStats struct {
	SQL         string    `json:"sql"`
	Count       int64     `json:"count"`
	Errors      int64     `json:"errors"`
	Degraded    int64     `json:"degraded"`
	MaxMS       float64   `json:"max_ms"`
	LastMS      float64   `json:"last_ms"`
	LastTraceID string    `json:"last_trace_id"`
	LastAt      time.Time `json:"last_at"`
}

// SlowQueries groups the kept traces by canonical SQL text, slowest worst case
// first. It is a view of the kept-trace ring, not a store of its own: every
// row describes traces that KeptTrace can still return.
func SlowQueries() []SlowQueryStats {
	var out []SlowQueryStats
	row := map[string]int{}
	for _, rec := range KeptTraces() { // newest first
		sql, _ := rec.Root.Attrs["sql"].(string)
		if sql == "" {
			continue
		}
		i, ok := row[sql]
		if !ok {
			i = len(out)
			row[sql] = i
			out = append(out, SlowQueryStats{SQL: sql, LastMS: rec.DurationMS,
				LastTraceID: rec.TraceID, LastAt: rec.Root.Start})
		}
		e := &out[i]
		e.Count++
		if rec.Verdict == "error" {
			e.Errors++
		}
		if rec.Verdict == "degraded" {
			e.Degraded++
		}
		e.MaxMS = max(e.MaxMS, rec.DurationMS)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxMS != out[j].MaxMS {
			return out[i].MaxMS > out[j].MaxMS
		}
		return out[i].SQL < out[j].SQL
	})
	return out
}

// ResetTraces drops all kept traces and parked amendments. Intended for tests.
func ResetTraces() {
	traceKeep.mu.Lock()
	traceKeep.buf = [maxKeptTraces]TraceRecord{}
	traceKeep.next = 0
	traceKeep.n = 0
	traceKeep.parked, traceKeep.parkNext = [maxParkedAmends]parkedAmend{}, 0
	traceKeep.mu.Unlock()
}
