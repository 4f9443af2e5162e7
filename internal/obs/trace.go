package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
)

// TraceID is a 128-bit request identity, shared by every span of one request
// tree. The zero value means "no trace".
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits (the W3C wire form).
func (t TraceID) String() string {
	var b [2 * len(t)]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

// SpanID is a 64-bit span identity, unique within a trace. The zero value
// means "no span".
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits (the W3C wire form).
func (s SpanID) String() string {
	var b [2 * len(s)]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// NewTraceID returns a random non-zero trace ID. The generator is
// math/rand/v2's process-wide source (ChaCha8-seeded, safe for concurrent
// use), which is cheap enough for per-request allocation on the serve path.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		hi, lo := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(hi >> (56 - 8*i))
			t[8+i] = byte(lo >> (56 - 8*i))
		}
	}
	return t
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(v >> (56 - 8*i))
		}
	}
	return s
}

// ParseTraceparent parses a W3C trace-context `traceparent` header
// (version-format "00": `00-<32 hex trace-id>-<16 hex parent-id>-<2 hex
// flags>`). It returns the trace ID, the caller's span ID, and whether the
// sampled flag (bit 0) is set. Unknown future versions are accepted as long
// as the four 00-version fields parse; version "ff", all-zero IDs and
// uppercase hex digits are rejected per spec.
func ParseTraceparent(h string) (TraceID, SpanID, bool, error) {
	var tid TraceID
	var sid SpanID
	if len(h) < 55 {
		return tid, sid, false, fmt.Errorf("obs: traceparent too short (%d bytes)", len(h))
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false, fmt.Errorf("obs: traceparent field separators misplaced")
	}
	version := h[0:2]
	if version == "ff" {
		return tid, sid, false, fmt.Errorf("obs: traceparent version ff is invalid")
	}
	// The grammar's hex is lowercase only: an uppercase ID would parse and be
	// echoed back lowercased, a different string from the client's.
	if strings.ContainsAny(h[:55], "ABCDEF") {
		return tid, sid, false, fmt.Errorf("obs: traceparent has uppercase hex")
	}
	if _, err := hex.Decode(make([]byte, 1), []byte(version)); err != nil {
		return tid, sid, false, fmt.Errorf("obs: traceparent version %q not hex", version)
	}
	// Version 00 is exactly 55 bytes; future versions may append fields after
	// another dash.
	if version == "00" && len(h) != 55 {
		return tid, sid, false, fmt.Errorf("obs: traceparent length %d, want 55", len(h))
	}
	if len(h) > 55 && h[55] != '-' {
		return tid, sid, false, fmt.Errorf("obs: traceparent trailing bytes without separator")
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return tid, sid, false, fmt.Errorf("obs: bad trace-id: %v", err)
	}
	if tid.IsZero() {
		return tid, sid, false, fmt.Errorf("obs: trace-id is all zero")
	}
	if _, err := hex.Decode(sid[:], []byte(h[36:52])); err != nil {
		return TraceID{}, sid, false, fmt.Errorf("obs: bad parent-id: %v", err)
	}
	if sid.IsZero() {
		return TraceID{}, sid, false, fmt.Errorf("obs: parent-id is all zero")
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceID{}, SpanID{}, false, fmt.Errorf("obs: bad trace-flags: %v", err)
	}
	return tid, sid, flags[0]&0x01 != 0, nil
}

// FormatTraceparent renders a version-00 W3C `traceparent` header value.
func FormatTraceparent(tid TraceID, sid SpanID, sampled bool) string {
	var b [len("00-") + 32 + 1 + 16 + len("-01")]byte // one allocation: the string
	copy(b[:], "00-")
	hex.Encode(b[3:35], tid[:])
	b[35] = '-'
	hex.Encode(b[36:52], sid[:])
	copy(b[52:], "-00")
	if sampled {
		b[54] = '1'
	}
	return string(b[:])
}

// remoteTraceKey carries an incoming (not-yet-span-backed) trace context.
type remoteTraceKey struct{}

type remoteTrace struct {
	tid     TraceID
	parent  SpanID
	sampled bool
}

// ContextWithRemoteTrace records an incoming trace context (e.g. parsed from
// a traceparent header) on ctx. The next StartSpan under ctx becomes a child
// of the remote span: it joins the trace instead of opening a new one, and an
// incoming sampled flag forces the tail sampler to keep the trace.
func ContextWithRemoteTrace(ctx context.Context, tid TraceID, parent SpanID, sampled bool) context.Context {
	if tid.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, remoteTraceKey{}, remoteTrace{tid: tid, parent: parent, sampled: sampled})
}
