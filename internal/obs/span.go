package obs

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// spanCtxKey is the context key carrying the current span.
type spanCtxKey struct{}

// maxSpanEvents bounds the number of timestamped events one span retains, so
// a retry loop gone wild cannot grow a span without limit. Overflow is
// counted in the last event's "dropped" attribute.
const maxSpanEvents = 64

// maxSpanChildren bounds the child spans one span retains, so a loop that
// opens a span per iteration cannot grow its parent (and every Snapshot of
// it) without limit. A child past the cap is still a working span that
// carries the trace and parent IDs; it is just not attached to the tree, and
// is counted in the parent's children_dropped. When it ends it marks the
// parent with any error or degradation in its own subtree, so the trace's
// outcome (and the tail sampler's verdict) does not depend on the cap.
const maxSpanChildren = 1024

// Span is one timed region of execution. Spans nest: starting a span under a
// context that already carries one attaches it as a child, producing a
// wall-clock tree. Every span carries its trace's 128-bit TraceID and its own
// 64-bit SpanID, so trees stitch into distributed traces across process
// boundaries via W3C traceparent propagation. A nil *Span is a valid no-op
// receiver, which is what StartSpan returns when observability is disabled.
type Span struct {
	name     string
	start    time.Time
	traceID  TraceID
	spanID   SpanID
	parentID SpanID

	mu       sync.Mutex
	end      time.Time
	attrs    []spanAttr // each joined key once, in first-write order
	events   []SpanEvent
	dropped  int // events beyond maxSpanEvents
	children []*Span
	errMsg   string
	degraded string // degradation reason, "" when none
	root     bool
	forced   bool // incoming sampled flag: tail sampler must keep the trace

	childrenDropped int   // children beyond maxSpanChildren
	droppedFrom     *Span // the parent that did not attach this span, if any

	// What a request's spans hold, in the span itself: a ladder span carries
	// up to four attributes and four children, and growing a slice from
	// empty to four takes three allocations.
	attrBuf  [4]spanAttr
	childBuf [4]*Span
}

// spanAttr is one attribute: its key is key+name, joined when a snapshot
// renders it (see AnnotateNamed). A typed attribute keeps its value unboxed,
// in str or num as its kind says, until a snapshot renders it; kind attrAny
// holds it in value.
type spanAttr struct {
	key, name string
	value     any
	str       string
	num       uint64 // an int64, or a float64's bits
	kind      attrKind
}

// attrKind says where a spanAttr's value is held.
type attrKind uint8

const (
	attrAny      attrKind = iota // value, rendered as it is (a func() string called)
	attrString                   // str
	attrInt                      // num, as an int64
	attrFloat                    // num, as a float64's bits
	attrStringer                 // value, a fmt.Stringer whose String is called
)

// rendered is the attribute's value as a snapshot reports it; an attrStringer
// becomes its String method, called by Snapshot like any func() string.
func (a *spanAttr) rendered() any {
	switch a.kind {
	case attrString:
		return a.str
	case attrInt:
		return int64(a.num)
	case attrFloat:
		return math.Float64frombits(a.num)
	case attrStringer:
		return a.value.(fmt.Stringer).String
	}
	return a.value
}

// SpanEvent is one timestamped point annotation inside a span (a retry, a
// guard trip, a breaker decision, ...).
type SpanEvent struct {
	Name  string         `json:"name"`
	At    time.Time      `json:"at"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// StartSpan begins a span named name under ctx and returns a derived context
// carrying it. End must be called on the returned span. When observability is
// disabled it returns ctx unchanged and a nil span whose methods are no-ops.
//
// A span started under a context carrying another span joins that span's
// trace as a child. A span started under a context carrying a remote trace
// context (see ContextWithRemoteTrace) becomes the local root of the remote
// trace: it inherits the remote trace ID and parent span ID, and a remote
// sampled flag forces the tail sampler to keep the trace.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !Enabled() {
		return ctx, nil
	}
	s := &Span{name: name, start: time.Now(), spanID: NewSpanID()}
	if parent, ok := ctx.Value(spanCtxKey{}).(*Span); ok && parent != nil {
		s.traceID = parent.traceID
		s.parentID = parent.spanID
		parent.adopt(s)
	} else if remote, ok := ctx.Value(remoteTraceKey{}).(remoteTrace); ok {
		s.traceID = remote.tid
		s.parentID = remote.parent
		s.forced = remote.sampled
		s.root = true
	} else {
		s.traceID = NewTraceID()
		s.root = true
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// SpanFromContext returns the span carried by ctx, or nil when there is none
// (including when observability was disabled at StartSpan time).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartChild begins a child span directly under s, for call sites that have a
// span in hand but no context plumbing (engine operators). It is nil-safe: a
// nil receiver returns a nil child, so disabled paths stay allocation-free.
// End must be called on the returned span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		name:    name,
		start:   time.Now(),
		traceID: s.traceID,
		spanID:  NewSpanID(),
	}
	c.parentID = s.spanID
	s.adopt(c)
	return c
}

// adopt attaches c as a child of s, or counts it as dropped once s already
// holds maxSpanChildren.
func (s *Span) adopt(c *Span) {
	s.mu.Lock()
	if len(s.children) >= maxSpanChildren {
		s.childrenDropped++
		c.droppedFrom = s
	} else {
		if s.children == nil {
			s.children = s.childBuf[:0]
		}
		s.children = append(s.children, c)
	}
	s.mu.Unlock()
}

// TraceID returns the span's trace ID (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// SpanID returns the span's ID (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// End finishes the span, fixing its duration. A root span is offered to the
// tail sampler, which keeps it for /tracez (and exports it) or lets it go:
// with tracing unconfigured nothing retains a finished tree. Calling End more
// than once keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	isRoot := s.root
	s.mu.Unlock()
	if s.droppedFrom != nil {
		errMsg, degraded := s.status()
		if errMsg != "" {
			s.droppedFrom.MarkError(errMsg)
		}
		if degraded != "" {
			s.droppedFrom.MarkDegraded(degraded)
		}
	}
	if isRoot {
		tailConsider(s)
	}
}

// Annotate attaches a key/value attribute to the span (last write wins). A
// func() string value is an attribute too dear to render for a span nobody
// reads: Snapshot calls it and reports the string, so it must stay callable,
// and keep returning the same thing, after the span has ended.
func (s *Span) Annotate(key string, value any) { s.AnnotateNamed(key, "", value) }

// AnnotateNamed is Annotate(key+name, value) for a key made of a constant
// prefix and a name ("rows/" and a table's), without building the key unless
// a snapshot renders it.
func (s *Span) AnnotateNamed(key, name string, value any) {
	s.annotate(spanAttr{key: key, name: name, value: value})
}

// AnnotateString is Annotate for a string, held unboxed until a snapshot
// renders it: a span nobody keeps costs no allocation for it.
func (s *Span) AnnotateString(key, value string) {
	s.annotate(spanAttr{key: key, str: value, kind: attrString})
}

// AnnotateInt is Annotate for an int64, held unboxed until a snapshot renders
// it.
func (s *Span) AnnotateInt(key string, value int64) {
	s.annotate(spanAttr{key: key, num: uint64(value), kind: attrInt})
}

// AnnotateFloat is Annotate for a float64, held unboxed until a snapshot
// renders it.
func (s *Span) AnnotateFloat(key string, value float64) {
	s.annotate(spanAttr{key: key, num: math.Float64bits(value), kind: attrFloat})
}

// AnnotateStringer is Annotate(key, value.String) without the method value:
// the snapshot reports value.String(), so value must keep rendering the same
// thing after the span has ended.
func (s *Span) AnnotateStringer(key string, value fmt.Stringer) {
	s.annotate(spanAttr{key: key, value: value, kind: attrStringer})
}

// annotate sets attribute a (last write of its joined key wins).
func (s *Span) annotate(a spanAttr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if old := &s.attrs[i]; joinedEqual(old.key, old.name, a.key, a.name) {
			old.value, old.str, old.num, old.kind = a.value, a.str, a.num, a.kind
			return
		}
	}
	if s.attrs == nil {
		s.attrs = s.attrBuf[:0]
	}
	s.attrs = append(s.attrs, a)
}

// joinedEqual reports whether k1+n1 == k2+n2, joining neither.
func joinedEqual(k1, n1, k2, n2 string) bool {
	if len(k1)+len(n1) != len(k2)+len(n2) {
		return false
	}
	if len(k1) > len(k2) {
		k1, n1, k2, n2 = k2, n2, k1, n1
	}
	d := len(k2) - len(k1) // k2 must be k1 + n1[:d]
	return k2[:len(k1)] == k1 && k2[len(k1):] == n1[:d] && n1[d:] == n2
}

// Event appends a timestamped event to the span. kv is alternating key/value
// pairs (slog style); a trailing odd key is ignored. Events beyond
// maxSpanEvents are dropped and counted.
func (s *Span) Event(name string, kv ...any) {
	if s == nil {
		return
	}
	var attrs map[string]any
	if len(kv) >= 2 {
		attrs = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			k, ok := kv[i].(string)
			if !ok {
				continue
			}
			attrs[k] = kv[i+1]
		}
	}
	s.mu.Lock()
	if len(s.events) >= maxSpanEvents {
		s.dropped++
	} else {
		s.events = append(s.events, SpanEvent{Name: name, At: time.Now(), Attrs: attrs})
	}
	s.mu.Unlock()
}

// MarkError records a failure on the span. The tail sampler always keeps
// traces containing an errored span.
func (s *Span) MarkError(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.errMsg == "" {
		s.errMsg = msg
	}
	s.mu.Unlock()
}

// MarkDegraded records that the span's request was answered degraded, with
// the cause ("deadline", "rows", "fault", "breaker", ...). The tail sampler
// always keeps traces containing a degraded span.
func (s *Span) MarkDegraded(reason string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.degraded == "" {
		s.degraded = reason
	}
	s.mu.Unlock()
}

// Duration returns the span's wall-clock duration (time since start if the
// span has not ended, 0 for a nil span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durationLocked()
}

// SpanSnapshot is a JSON-friendly view of a finished span tree.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	TraceID    string         `json:"trace_id,omitempty"`
	SpanID     string         `json:"span_id,omitempty"`
	ParentID   string         `json:"parent_id,omitempty"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Error      string         `json:"error,omitempty"`
	Degraded   string         `json:"degraded,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Events     []SpanEvent    `json:"events,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
	// ChildrenDropped counts child spans started beyond the per-span cap
	// (maxSpanChildren) and therefore missing from Children.
	ChildrenDropped int `json:"children_dropped,omitempty"`
}

// Snapshot renders the span and its subtree. Unfinished descendants report
// their duration so far. It is safe to call while descendants are still
// running and mutating: every span's state is copied under that span's own
// lock.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	snap := SpanSnapshot{
		Name:       s.name,
		TraceID:    s.traceID.String(),
		SpanID:     s.spanID.String(),
		Start:      s.start,
		DurationMS: float64(s.durationLocked()) / float64(time.Millisecond),
		Error:      s.errMsg,
		Degraded:   s.degraded,
	}
	snap.ChildrenDropped = s.childrenDropped
	if !s.parentID.IsZero() {
		snap.ParentID = s.parentID.String()
	}
	if len(s.attrs) > 0 {
		snap.Attrs = make(map[string]any, len(s.attrs))
		for i := range s.attrs {
			a := &s.attrs[i]
			snap.Attrs[a.key+a.name] = a.rendered()
		}
	}
	if len(s.events) > 0 {
		snap.Events = append([]SpanEvent(nil), s.events...)
		if s.dropped > 0 {
			snap.Events = append(snap.Events, SpanEvent{
				Name:  "events_dropped",
				At:    s.end,
				Attrs: map[string]any{"dropped": s.dropped},
			})
		}
	}
	children := s.children // append-only: the first len entries never change
	s.mu.Unlock()
	for k, v := range snap.Attrs {
		if render, ok := v.(func() string); ok {
			snap.Attrs[k] = render() // the annotator's code: not under the span's lock
		}
	}
	for _, c := range children {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}

// status walks the span's subtree and reports whether any span recorded an
// error or a degradation, returning the first of each found (depth-first).
func (s *Span) status() (errMsg, degraded string) {
	if s == nil {
		return "", ""
	}
	s.mu.Lock()
	errMsg, degraded = s.errMsg, s.degraded
	children := s.children // append-only: the first len entries never change
	s.mu.Unlock()
	for _, c := range children {
		if errMsg != "" && degraded != "" {
			break
		}
		ce, cd := c.status()
		if errMsg == "" {
			errMsg = ce
		}
		if degraded == "" {
			degraded = cd
		}
	}
	return errMsg, degraded
}

// durationLocked is Duration with s.mu already held.
func (s *Span) durationLocked() time.Duration {
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}
