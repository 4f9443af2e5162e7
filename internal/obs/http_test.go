package obs

import (
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestStartDebugLifecycle checks the debug server binds, serves, and shuts
// down without leaking its accept goroutine or the listener port.
func TestStartDebugLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()

	d, err := StartDebug("localhost:0")
	if err != nil {
		t.Fatalf("StartDebug: %v", err)
	}
	if !Enabled() {
		t.Error("StartDebug did not enable observability")
	}

	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(string(body)), "{") {
		t.Errorf("GET /metrics = %d %q, want 200 with JSON object", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The port must be released…
	if _, err := http.Get("http://" + d.Addr() + "/metrics"); err == nil {
		t.Error("debug server still serving after Shutdown")
	}
	// …and the serve goroutine reaped.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines after Shutdown = %d, baseline %d — serve goroutine leaked", n, before)
	}

	// A nil receiver is a no-op so callers can shut down unconditionally.
	var nilServer *DebugServer
	if err := nilServer.Shutdown(context.Background()); err != nil {
		t.Errorf("nil Shutdown: %v", err)
	}
}

// TestStartDebugBindErrorSurfaces checks a taken port fails fast at StartDebug
// rather than silently serving nothing.
func TestStartDebugBindErrorSurfaces(t *testing.T) {
	d, err := StartDebug("localhost:0")
	if err != nil {
		t.Fatalf("StartDebug: %v", err)
	}
	defer d.Shutdown(context.Background())

	if _, err := StartDebug(d.Addr()); err == nil {
		t.Fatal("StartDebug on a taken port returned no error")
	}
}

// TestStartDebugHeaderTimeout: the debug listener bounds how long a client may
// take over its request headers, with the serving listener's value — read off
// the http.Server StartDebug built, not waited out.
func TestStartDebugHeaderTimeout(t *testing.T) {
	d, err := StartDebug("localhost:0")
	if err != nil {
		t.Fatalf("StartDebug: %v", err)
	}
	defer d.Shutdown(context.Background())
	if got := d.srv.ReadHeaderTimeout; got != 5*time.Second {
		t.Errorf("debug server ReadHeaderTimeout = %v, want the serving listener's 5s", got)
	}
}

// TestShutdownExpiredContext: with the deadline already gone Shutdown may
// return before it has seen the serve goroutine finish, and must then not read
// the error that goroutine writes (the race detector is the assertion); what
// it returns is nil or the context's error, and the goroutine still ends.
func TestShutdownExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		d, err := StartDebug("localhost:0")
		if err != nil {
			t.Fatalf("StartDebug: %v", err)
		}
		if err := d.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("Shutdown under an expired context: %v", err)
		}
		<-d.done
	}
}
