package obs

import (
	"net/http"
	"strings"
	"time"
)

// TraceSummary is one /tracez listing row: enough to spot the trace you
// want, with the full tree one click away (?trace=<id>).
type TraceSummary struct {
	TraceID    string         `json:"trace_id"`
	Name       string         `json:"name"`
	Verdict    string         `json:"verdict"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Error      string         `json:"error,omitempty"`
	Degraded   string         `json:"degraded,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// tracezPage is the JSON body of GET /tracez.
type tracezPage struct {
	SamplePolicy tracezPolicy     `json:"sample_policy"`
	Traces       []TraceSummary   `json:"traces"`
	SlowQueries  []SlowQueryStats `json:"slow_queries,omitempty"`
}

type tracezPolicy struct {
	Configured    bool    `json:"configured"`
	SampleRate    float64 `json:"sample_rate"`
	SlowThreshold string  `json:"slow_threshold"`
	Exporting     bool    `json:"exporting"`
}

// handleTracez serves the tail-sampled trace store:
//
//	/tracez                     all kept traces (newest first) + slow-query log
//	/tracez?view=slow           only traces kept for the given verdict
//	       (slow|error|degraded|sampled|forced)
//	/tracez?trace=<hex id>      one full span tree
func handleTracez(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("trace"); id != "" {
		rec, ok := KeptTrace(id)
		if !ok {
			http.Error(w, "trace not found (evicted or never sampled)", http.StatusNotFound)
			return
		}
		writeJSON(w, rec)
		return
	}
	view := strings.ToLower(r.URL.Query().Get("view"))
	page := tracezPage{SlowQueries: SlowQueries()}
	if cfg, ok := tracingConfigured(); ok {
		page.SamplePolicy = tracezPolicy{
			Configured:    true,
			SampleRate:    cfg.SampleRate,
			SlowThreshold: cfg.SlowThreshold.String(),
			Exporting:     cfg.Exporter != nil,
		}
	}
	for _, rec := range KeptTraces() {
		if view != "" && view != "all" && rec.Verdict != view {
			continue
		}
		page.Traces = append(page.Traces, TraceSummary{
			TraceID:    rec.TraceID,
			Name:       rec.Root.Name,
			Verdict:    rec.Verdict,
			Start:      rec.Root.Start,
			DurationMS: rec.DurationMS,
			Error:      rec.Root.Error,
			Degraded:   rec.Root.Degraded,
			Attrs:      rec.Root.Attrs,
		})
	}
	writeJSON(w, page)
}
