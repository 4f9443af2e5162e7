package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// readHeaderTimeout bounds how long a connection may take to send its request
// headers: the serving listener's value (internal/server), so the debug
// listener is not the one socket a silent client can hold open for ever.
const readHeaderTimeout = 5 * time.Second

// Handler returns the debug HTTP handler:
//
//	/            index linking the endpoints
//	/metrics     JSON snapshot of the default registry: counters, and each
//	             histogram's count, sum, extrema and quantiles
//	/tracez      tail-sampled traces: slow/error/degraded views, slow-query
//	             log, full trees by ?trace=<id>
//	/debug/pprof the standard net/http/pprof handlers
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>asqp debug</h1><ul>`+
			`<li><a href="/metrics">/metrics</a> — metrics registry snapshot (JSON)</li>`+
			`<li><a href="/tracez">/tracez</a> — tail-sampled traces and slow-query log</li>`+
			`<li><a href="/debug/pprof/">/debug/pprof/</a> — runtime profiles</li>`+
			`</ul></body></html>`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, Default().Snapshot())
	})
	mux.HandleFunc("/tracez", handleTracez)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug HTTP server with an owned lifecycle: the
// bound address is known, serve errors are surfaced instead of dropped, and
// Shutdown releases the listener and its goroutine so tests and draining
// binaries do not leak.
type DebugServer struct {
	addr string
	srv  *http.Server
	done chan struct{}
	err  error
}

// StartDebug binds addr, enables observability, and serves the debug handler
// in a background goroutine. It returns an error if the listener cannot be
// opened (a bad -debug-addr fails fast instead of silently serving nothing).
func StartDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	SetEnabled(true)
	d := &DebugServer{
		addr: ln.Addr().String(),
		srv:  &http.Server{Handler: Handler(), ReadHeaderTimeout: readHeaderTimeout},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		if err := d.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			d.err = err
			Logger().Error("debug server failed", "addr", d.addr, "err", err)
		}
	}()
	return d, nil
}

// Addr returns the bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.addr }

// Shutdown gracefully stops the server, waiting for in-flight requests up to
// ctx's deadline, and returns any serve error observed over its lifetime. The
// serve goroutine writes that error before it closes done, so it is read only
// once done is seen closed; a ctx that expires first returns Shutdown's error.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	if d == nil {
		return nil
	}
	err := d.srv.Shutdown(ctx)
	select {
	case <-d.done:
		if err == nil {
			err = d.err
		}
	case <-ctx.Done():
	}
	return err
}

// writeJSON marshals v with indentation for human-friendly curling.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
