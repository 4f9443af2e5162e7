package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// nopHandler is an slog.Handler that reports every level disabled, making
// Logger() calls free (no attribute formatting) when logging is off.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var (
	defaultLogger atomic.Pointer[slog.Logger]
	loggingActive atomic.Bool
)

func init() {
	defaultLogger.Store(slog.New(nopHandler{}))
}

// Logger returns the package logger. It is a no-op unless EnableLogging has
// been called, so call sites may log unconditionally.
func Logger() *slog.Logger { return defaultLogger.Load() }

// LoggerCtx returns the package logger stamped with ctx's trace ID, so every
// log line written while serving a traced request links back to its trace.
// When logging is off or ctx carries no span it is exactly Logger() — no
// allocation.
func LoggerCtx(ctx context.Context) *slog.Logger {
	l := Logger()
	if !loggingActive.Load() {
		return l
	}
	if s := SpanFromContext(ctx); s != nil {
		return l.With("trace_id", s.TraceID().String())
	}
	return l
}

// setLogger replaces the package logger. Passing nil restores the no-op
// logger.
func setLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(nopHandler{})
		loggingActive.Store(false)
	} else {
		loggingActive.Store(true)
	}
	defaultLogger.Store(l)
}

// EnableLogging routes structured logs at or above level to w as
// logfmt-style text.
func EnableLogging(w io.Writer, level slog.Level) {
	setLogger(slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})))
}

// ParseLevel maps a -log flag value ("debug", "info", "warn", "error") to a
// slog level, defaulting to info for unknown strings.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}
