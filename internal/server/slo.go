// SLO and flight-recorder wiring for the server: the declarative SLO set
// built from Config, the engine that samples the registry into burn-rate
// windows, the /sloz and /debugz endpoints, and the fast-burn →
// bundle-capture hook.
package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"asqprl/internal/audit"
	"asqprl/internal/diag"
	"asqprl/internal/obs"
	"asqprl/internal/slo"
	"asqprl/internal/wal"
)

// sloEnabled reports whether any objective is configured.
func (c Config) sloEnabled() bool {
	return c.SLOAvailability > 0 || c.SLOLatencyP99 > 0 || c.SLOQualityP95 > 0
}

// initSLO builds the SLO engine and the flight recorder from Config. Called
// once from New. The engine exists whenever objectives or DiagDir are set:
// with DiagDir alone it only samples, for the bundle's series and the
// per-rung latency on /sloz. With neither it leaves both fields nil — the nil
// receivers are no-ops, so the request path is untouched.
func (s *Server) initSLO() {
	cfg := s.cfg
	if !cfg.sloEnabled() && cfg.DiagDir == "" {
		return
	}
	// The sampler reads the process-wide registry the request path writes
	// to; SLOs are meaningless with recording off, so configuring one turns
	// it on (asqp-serve already does; this covers embedded servers).
	if !obs.Enabled() {
		obs.SetEnabled(true)
		obs.Logger().Info("slo: enabling metric recording (objectives configured)")
	}

	var defs []slo.Def
	if cfg.SLOAvailability > 0 {
		defs = append(defs, slo.Def{
			Name:         "availability",
			Kind:         slo.Availability,
			Objective:    cfg.SLOAvailability,
			TotalCounter: metricRequests,
			BadCounters:  []string{metricDegraded, metricErrors, metricUnavailable},
		})
	}
	if cfg.SLOLatencyP99 > 0 {
		defs = append(defs, slo.Def{
			Name:      "latency",
			Kind:      slo.Latency,
			Objective: 0.99,
			Threshold: cfg.SLOLatencyP99.Seconds(),
			Metric:    metricRequestSeconds,
			Root:      spanQuery,
		})
	}
	if cfg.SLOQualityP95 > 0 {
		defs = append(defs, slo.Def{
			Name:      "quality",
			Kind:      slo.Quality,
			Objective: 0.95,
			Threshold: cfg.SLOQualityP95,
			Metric:    audit.MetricRelativeError,
		})
	}
	eng, err := slo.New(obs.Default(), cfg.SLOClock, defs)
	if err != nil {
		// Config.Validate rejects every objective and threshold slo.New
		// would; reaching here means the caller skipped it or initSLO built
		// a def wrong.
		panic(fmt.Sprintf("server: building SLO engine: %v", err))
	}
	s.sloEng = eng

	if cfg.DiagDir != "" {
		rec, err := diag.New(diag.Config{Dir: cfg.DiagDir, Now: cfg.SLOClock}, diag.Source{
			Metrics: func() any { return obs.Default().Snapshot() },
			Series:  func() any { return s.sloEng.Series() },
			SLO:     func() any { return s.sloEng.Page() },
			Traces:  func() any { return obs.KeptTraces() },
			Stats:   func() any { return s.statsNow() },
			Journal: s.journalDiag,
		})
		if err != nil {
			obs.Logger().Error("diag: flight recorder disabled", "dir", cfg.DiagDir, "err", err)
		} else {
			s.rec = rec
		}
	}

	// Fast-burn is the capture trigger: the recorder's rate limiter (not the
	// hysteresis alone) guarantees at most one bundle per
	// diag.DefaultMinInterval even if several SLOs trip together. The
	// capture runs off the sampler goroutine — it writes profiles and JSON,
	// which must not delay the next sample.
	s.sloEng.OnTransition(func(tr slo.Transition) {
		obs.Logger().Warn("slo state change", "slo", tr.SLO.Name,
			"from", tr.From, "to", tr.To, "budget_consumed", tr.SLO.BudgetConsumed)
		if tr.To != slo.StateFastBurn || s.rec == nil {
			return
		}
		reason := "slo-fast-burn-" + tr.SLO.Name
		go func() {
			if dir, err := s.rec.Capture(reason, false); err != nil {
				obs.Logger().Error("diag capture failed", "reason", reason, "err", err)
			} else if dir != "" {
				obs.Logger().Warn("diag bundle captured", "reason", reason, "bundle", dir)
			}
		}()
	})

	// Every sample re-evaluates the SLOs, so state (and the fast-burn
	// trigger) advances at sampler cadence with no extra goroutine. With an
	// injected clock the ticker stays off and tests drive SampleNow.
	if cfg.SLOClock == nil {
		s.sloEng.Start()
	}
}

// journalDiag stamps a diag/bundle record onto the WAL after a successful
// capture, durably: if the process dies right after alerting, the replayed
// tail says so ("crashed while alerting" in the recovery report).
func (s *Server) journalDiag(reason, bundle string) {
	if s.wal == nil {
		return
	}
	err := s.wal.Append(wal.Record{
		Type:   wal.TypeDiag,
		UnixNs: time.Now().UnixNano(),
		Event:  reason,
		Path:   bundle,
	})
	if err != nil {
		obs.Logger().Warn("diag journal append failed", "reason", reason, "err", err)
		walAppendErrors.Inc()
	}
}

// RungLatency is a per-degradation-rung windowed latency summary in /sloz.
type RungLatency struct {
	Window string  `json:"window"`
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// SlozPage is the /sloz payload: the engine's page plus per-rung latency
// quantiles over the fast-long window, so "which rung is slow" is answered
// on the same page as "which SLO is burning".
type SlozPage struct {
	slo.Page
	RungLatency map[string]RungLatency `json:"rung_latency,omitempty"`
}

// slozPage assembles the /sloz payload, which a flight-recorder bundle also
// writes as slo.json.
func (s *Server) slozPage() SlozPage {
	page := SlozPage{Page: s.sloEng.Page()}
	if s.sloEng == nil {
		return page
	}
	for rung, metric := range map[string]string{
		"approximation": metricRungApprox,
		"full":          metricRungFull,
	} {
		b, elapsed, ok := s.sloEng.Window(metric, slo.FastLong)
		if !ok || b.Count() == 0 {
			continue
		}
		if page.RungLatency == nil {
			page.RungLatency = make(map[string]RungLatency, 2)
		}
		page.RungLatency[rung] = RungLatency{
			Window: elapsed.Round(time.Millisecond).String(),
			Count:  b.Count(),
			P50Ms:  1000 * b.Quantile(0.50),
			P99Ms:  1000 * b.Quantile(0.99),
		}
	}
	return page
}

// handleSloz serves the SLO page: JSON by default, a plaintext table with
// ?view=human. Always mounted; with no objectives it reports enabled=false.
// Each GET re-evaluates, so the page reflects the current clock even between
// sampler ticks.
func (s *Server) handleSloz(w http.ResponseWriter, r *http.Request) {
	s.sloEng.Evaluate()
	page := s.slozPage()
	if r.URL.Query().Get("view") == "human" {
		var b strings.Builder
		page.WriteHuman(&b)
		if len(page.RungLatency) > 0 {
			b.WriteString("\nper-rung latency (fast-long window):\n")
			for _, rung := range []string{"approximation", "full"} {
				rl, ok := page.RungLatency[rung]
				if !ok {
					continue
				}
				fmt.Fprintf(&b, "  %-14s n=%-6d p50=%.2fms p99=%.2fms\n",
					rung, rl.Count, rl.P50Ms, rl.P99Ms)
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
		return
	}
	s.writeJSON(w, http.StatusOK, time.Now(), page)
}

// DebugzPage is the /debugz payload: recorder status plus what a capture
// just produced (when ?capture=1 was sent).
type DebugzPage struct {
	Enabled  bool        `json:"enabled"`
	Status   diag.Status `json:"status"`
	Captured string      `json:"captured,omitempty"`
	Error    string      `json:"error,omitempty"`
}

// handleDebugz reports the flight recorder's state; ?capture=1 forces an
// immediate bundle (bypassing the rate limiter — an operator asking gets a
// bundle). 409 when no recorder is configured and a capture was requested.
func (s *Server) handleDebugz(w http.ResponseWriter, r *http.Request) {
	page := DebugzPage{Enabled: s.rec != nil, Status: s.rec.Status()}
	if v := r.URL.Query().Get("capture"); v == "1" || v == "true" {
		if s.rec == nil {
			page.Error = "flight recorder disabled: start with a diag dir (-diag-dir)"
			s.writeJSON(w, http.StatusConflict, time.Now(), page)
			return
		}
		dir, err := s.rec.Capture("debugz", true)
		if err != nil {
			page.Error = err.Error()
			s.writeJSON(w, http.StatusInternalServerError, time.Now(), page)
			return
		}
		page.Captured = dir
		page.Status = s.rec.Status()
	}
	s.writeJSON(w, http.StatusOK, time.Now(), page)
}
