// Package obs is the observability layer of the ASQP-RL system: a
// concurrency-safe metrics registry (counters and fixed-bucket latency
// histograms), lightweight hierarchical spans, and a log/slog-based structured
// logger.
//
// The package is stdlib-only and designed so instrumented hot paths cost
// near zero when observability is off: an instrument of the default registry
// loads Enabled() inside Inc/Add/Observe, a single atomic load, and
// spans/loggers degrade to nil-receiver no-ops. Callers therefore instrument
// unconditionally — a package-level handle, one bare call — and let the
// package decide whether anything is recorded.
//
// A process-wide default registry and tail sampler back the package-level
// helpers; the debug HTTP server (see Handler/StartDebug) exposes them as
// JSON at /metrics and /tracez alongside net/http/pprof.
package obs

import "sync/atomic"

var enabled atomic.Bool

// SetEnabled turns metric and span recording on or off process-wide.
// Structured logging is controlled separately via EnableLogging.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metric and span recording is on: the one gate, read
// by StartSpan and by the default registry's instruments themselves, so the
// disabled cost is one atomic load.
func Enabled() bool { return enabled.Load() }
