package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"asqprl/internal/audit"
	"asqprl/internal/obs"
	"asqprl/internal/slo"
	"asqprl/internal/wal"
)

// sloClock is a mutex-guarded fake clock injected via Config.SLOClock so the
// burn-rate window math is exact and the tests never sleep for real windows.
type sloClock struct {
	mu sync.Mutex
	t  time.Time
}

func newSLOClock() *sloClock {
	// A fixed epoch keeps since-timestamps and bundle names deterministic.
	return &sloClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *sloClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *sloClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// sloStatus extracts one SLO's status from a page.
func sloStatus(t *testing.T, page slo.Page, name string) slo.Status {
	t.Helper()
	for _, s := range page.SLOs {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("SLO %q missing from page: %+v", name, page)
	return slo.Status{}
}

// TestSLOFastBurnFlightRecorderEndToEnd is the chaos/e2e acceptance test for
// the observability stack: a latency regression under a deterministic fake
// clock must (1) trip the latency SLO to fast_burn with the multi-window math
// exactly right — one bad interval confirms the short window but NOT the long
// one, (2) capture exactly one rate-limited flight-recorder bundle holding
// the metric series, the trace ring, and a goroutine profile, (3) stamp a
// durable diag/bundle WAL record that a kill-without-close replay surfaces as
// "crashed while alerting", and (4) carry the quality SLO's fast burn, which
// alerts only (retrain rollback reads the auditor's per-generation evidence).
func TestSLOFastBurnFlightRecorderEndToEnd(t *testing.T) {
	defer obs.SetEnabled(false)
	clk := newSLOClock()
	walDir := t.TempDir()
	diagDir := filepath.Join(t.TempDir(), "diag")

	wlog1, rec0, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec0.Stats.FramesReplayed != 0 {
		t.Fatalf("fresh WAL replayed %d frames", rec0.Stats.FramesReplayed)
	}

	sys, err := trainedSystem(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	// The shipped windows (1m/5m/30m/6h) and rate limit (1m), sampled every
	// slo.SampleInterval on the fake clock.
	cfg := Config{
		WAL:           wlog1,
		SLOLatencyP99: 50 * time.Millisecond,
		SLOQualityP95: 0.1,
		SLOClock:      clk.now,
		DiagDir:       diagDir,
	}
	srv, base := startServer(t, sys, cfg)
	eng, rec := srv.sloEng, srv.rec
	if eng == nil || rec == nil {
		t.Fatalf("SLO wiring incomplete: eng=%v rec=%v", eng, rec)
	}

	// The SLI source is the request-latency histogram handleQuery feeds; the
	// test writes it directly so every window count is exact. Good requests
	// land at 1ms (whole buckets below the 50ms target), bad at 1s (whole
	// buckets above), so FractionBelow needs no interpolation and the window
	// error rates are exact ratios. A tick is one 5s interval: the fast-short
	// window holds 12 of them, and the others reach back to the first sample
	// throughout this test.
	lat := obs.Default().Histogram(metricRequestSeconds)
	tick := func(observe func()) {
		if observe != nil {
			observe()
		}
		clk.advance(slo.SampleInterval)
		eng.SampleNow() // samples, then evaluates the SLOs
	}
	good := func() {
		for i := 0; i < 10; i++ {
			lat.Observe(0.001)
		}
	}
	bad := func() {
		for i := 0; i < 30; i++ {
			lat.Observe(1.0)
		}
	}

	// --- Healthy phase: 24 intervals (2m) of fast traffic → state ok. ---
	for i := 0; i < 24; i++ {
		tick(good)
	}
	if st := sloStatus(t, eng.Page(), "latency"); st.State != slo.StateOK {
		t.Fatalf("after healthy phase: latency status = %+v, want ok state", st)
	}

	// --- One bad interval: the 1m confirmation window fires but the 5m
	// window must hold the line (110 good + 30 bad in 1m → burn 21.4; 230
	// good + 30 bad since the first sample → burn 11.5 < 14.4). This is the
	// multi-window property: a single bad interval never pages as fast_burn.
	// The slow pair (30m/6h, also reading from the first sample) sees the
	// same 11.5× burn, which IS over the 6× slow threshold — so the state is
	// exactly slow_burn: ticket, not page, and no flight-recorder capture. ---
	tick(bad)
	st := sloStatus(t, eng.Page(), "latency")
	if st.State != slo.StateSlowBurn {
		t.Fatalf("after 1 bad interval: state = %s, want slow_burn (fast_long not confirmed)", st.State)
	}
	if st.Burns[0].Burn < 14.4 {
		t.Errorf("fast_short burn = %v, want >= 14.4 (short window confirms first)", st.Burns[0].Burn)
	}
	if st.Burns[1].Burn >= 14.4 {
		t.Errorf("fast_long burn = %v, want < 14.4 after one bad interval", st.Burns[1].Burn)
	}

	// --- Second bad interval: 60 bad / 290 events in the 5m window → burn
	// 20.7; both windows over threshold → fast_burn. ---
	tick(bad)
	burnAt := clk.now()
	if st := sloStatus(t, eng.Page(), "latency"); st.State != slo.StateFastBurn {
		t.Fatalf("after 2 bad intervals: state = %s, want fast_burn", st.State)
	} else if !st.Since.Equal(burnAt) {
		t.Errorf("fast_burn since = %v, want the transition tick %v", st.Since, burnAt)
	}

	// The /sloz page must agree, with exact window math.
	var page SlozPage
	if code := getJSON(t, base+"/sloz", &page); code != 200 {
		t.Fatalf("/sloz = %d", code)
	}
	if !page.Enabled {
		t.Fatal("/sloz reports disabled")
	}
	if w := page.Windows; w.FastShort != "1m0s" || w.FastLong != "5m0s" || w.SlowShort != "30m0s" || w.SlowLong != "6h0m0s" {
		t.Fatalf("/sloz windows = %+v", w)
	}
	latSt := sloStatus(t, page.Page, "latency")
	if latSt.State != slo.StateFastBurn {
		t.Fatalf("/sloz latency state = %s, want fast_burn", latSt.State)
	}
	if len(latSt.Burns) != 4 {
		t.Fatalf("latency has %d burn windows, want 4: %+v", len(latSt.Burns), latSt.Burns)
	}
	fl := latSt.Burns[1] // fast_long
	if fl.Window != "5m0s" || fl.Events != 290 {
		t.Fatalf("fast_long window = %+v, want 5m0s over exactly 290 events", fl)
	}
	if wantRate := 60.0 / 290.0; math.Abs(fl.ErrorRate-wantRate) > 1e-9 {
		t.Errorf("fast_long error_rate = %v, want exactly %v", fl.ErrorRate, wantRate)
	}
	if wantBurn := (60.0 / 290.0) / 0.01; math.Abs(fl.Burn-wantBurn) > 1e-6 {
		t.Errorf("fast_long burn = %v, want %v (error rate over the 1%% budget)", fl.Burn, wantBurn)
	}
	if len(page.FastBurning) != 1 || page.FastBurning[0] != "latency" {
		t.Fatalf("fast_burning = %v, want [latency]", page.FastBurning)
	}

	// Human view renders the same state.
	resp, err := testClient.Get(base + "/sloz?view=human")
	if err != nil {
		t.Fatal(err)
	}
	human := make([]byte, 1<<16)
	n, _ := resp.Body.Read(human)
	resp.Body.Close()
	if !strings.Contains(string(human[:n]), "fast_burn") || !strings.Contains(string(human[:n]), "latency") {
		t.Errorf("/sloz?view=human missing burn state:\n%s", human[:n])
	}

	// The recorder's status is on /debugz (the SLO page is /sloz, above).
	var dbg DebugzPage
	if code := getJSON(t, base+"/debugz", &dbg); code != 200 {
		t.Fatalf("/debugz = %d", code)
	}
	if !dbg.Enabled || dbg.Status.Dir != diagDir {
		t.Fatalf("/debugz = %+v, want enabled with dir %s", dbg, diagDir)
	}

	// --- The fast-burn transition captured a bundle (async goroutine: poll
	// in real time) and journaled it durably to the WAL. ---
	deadline := time.Now().Add(10 * time.Second)
	for rec.Status().Captures < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no bundle captured; recorder status %+v", rec.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for wlog1.Stats().Appended < 1 {
		if time.Now().After(deadline) {
			t.Fatal("diag/bundle record never appended to the WAL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	bundles := listBundles(t, diagDir)
	if len(bundles) != 1 {
		t.Fatalf("bundle dirs = %v, want exactly 1", bundles)
	}
	bundleName := bundles[0]
	if !strings.Contains(bundleName, "slo-fast-burn-latency") {
		t.Errorf("bundle name %q does not carry the trigger reason", bundleName)
	}
	bundleDir := filepath.Join(diagDir, bundleName)
	for _, f := range []string{
		"meta.json", "metrics.json", "series.json", "slo.json",
		"traces.json", "stats.json",
		"goroutines.txt", "heap.pprof",
	} {
		fi, err := os.Stat(filepath.Join(bundleDir, f))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
		if fi.Size() == 0 {
			t.Errorf("bundle file %s is empty", f)
		}
	}
	gor, err := os.ReadFile(filepath.Join(bundleDir, "goroutines.txt"))
	if err != nil || !strings.Contains(string(gor), "goroutine") {
		t.Errorf("goroutines.txt is not a goroutine dump (err=%v)", err)
	}
	var dump slo.SeriesDump
	raw, err := os.ReadFile(filepath.Join(bundleDir, "series.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("series.json does not parse: %v", err)
	}
	if len(dump.Histograms[metricRequestSeconds]) == 0 {
		t.Errorf("series.json has no %s points; histograms: %v", metricRequestSeconds, len(dump.Histograms))
	}
	meta, err := os.ReadFile(filepath.Join(bundleDir, "meta.json"))
	if err != nil || !strings.Contains(string(meta), "slo-fast-burn-latency") {
		t.Errorf("meta.json missing trigger reason (err=%v): %s", err, meta)
	}

	// --- A second SLO tripping inside diag.DefaultMinInterval (1m) must be
	// suppressed by the recorder's rate limit: drive the quality SLO (audit
	// relative-error histogram) into fast_burn one 5s tick later. ---
	rel := obs.Default().Histogram(audit.MetricRelativeError)
	tick(func() {
		for i := 0; i < 10; i++ {
			rel.Observe(1.0) // relative error 1.0 >> the 0.1 target
		}
	})
	qualityAt := clk.now()
	qualitySt := sloStatus(t, eng.Page(), "quality")
	if qualitySt.State != slo.StateFastBurn || !qualitySt.Since.Equal(qualityAt) {
		t.Fatalf("quality state = %s since %v, want fast_burn since %v (all audited errors over target)",
			qualitySt.State, qualitySt.Since, qualityAt)
	}
	for rec.Status().Suppressed < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("quality fast-burn capture was not suppressed; status %+v", rec.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := rec.Status(); st.Captures != 1 {
		t.Fatalf("captures = %d after suppressed second trigger, want still 1 (%+v)", st.Captures, st)
	}
	if got := listBundles(t, diagDir); len(got) != 1 {
		t.Fatalf("bundle dirs after suppression = %v, want exactly 1", got)
	}

	// --- Crash: the process dies without closing the WAL. The replayed tail
	// must carry the diag/bundle record and recovery must say "crashed while
	// alerting". ---
	wlog2, rec2, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog2.Close()
	var diagRec *wal.Record
	for i := range rec2.Tail {
		if rec2.Tail[i].Type == wal.TypeDiag {
			diagRec = &rec2.Tail[i]
		}
	}
	if diagRec == nil {
		t.Fatalf("no diag record in replayed tail (%d records)", len(rec2.Tail))
	}
	if diagRec.Event != "slo-fast-burn-latency" || diagRec.Path != bundleName {
		t.Fatalf("replayed diag record = %+v, want reason slo-fast-burn-latency bundle %s", diagRec, bundleName)
	}

	sys2, err := trainedSystem(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	srv2, base2 := startServer(t, sys2, Config{WAL: wlog2})
	srv2.BeginRecovery()
	info := srv2.Recover(sys2, rec2)
	if info.DiagBundles != 1 || !info.CrashedWhileAlerting {
		t.Fatalf("recovery info = %+v, want 1 diag bundle and crashed_while_alerting", info)
	}
	if info.LastDiagReason != "slo-fast-burn-latency" || info.LastDiagBundle != bundleName {
		t.Fatalf("recovery diag pointer = (%q, %q), want (slo-fast-burn-latency, %s)",
			info.LastDiagReason, info.LastDiagBundle, bundleName)
	}
	var stats2 Stats
	if code := getJSON(t, base2+"/stats", &stats2); code != 200 {
		t.Fatalf("/stats after recovery = %d", code)
	}
	if stats2.Recovery == nil || !stats2.Recovery.CrashedWhileAlerting {
		t.Fatalf("/stats recovery block = %+v, want crashed_while_alerting", stats2.Recovery)
	}
}

// listBundles returns the bundle-* directory names under dir (empty when the
// directory does not exist yet).
func listBundles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestSlozDebugzDisabled: with no objectives and no diag dir the whole SLO
// layer stays nil — /sloz reports disabled, /debugz?capture=1 is a 409, and
// the accessors confirm nothing was wired into the request path.
func TestSlozDebugzDisabled(t *testing.T) {
	srv, base := startServer(t, trainedSystem(t), Config{})
	if srv.sloEng != nil || srv.rec != nil {
		t.Fatal("SLO layer built without any objectives or diag dir")
	}
	var page SlozPage
	if code := getJSON(t, base+"/sloz", &page); code != 200 || page.Enabled {
		t.Fatalf("/sloz = %d enabled=%v, want 200 disabled", code, page.Enabled)
	}
	var dbg DebugzPage
	if code := getJSON(t, base+"/debugz", &dbg); code != 200 || dbg.Enabled {
		t.Fatalf("/debugz = %d enabled=%v, want 200 disabled", code, dbg.Enabled)
	}
	if code := getJSON(t, base+"/debugz?capture=1", &dbg); code != 409 {
		t.Fatalf("/debugz?capture=1 without a recorder = %d, want 409", code)
	}
	if !strings.Contains(dbg.Error, "-diag-dir") {
		t.Errorf("capture error %q should point at -diag-dir", dbg.Error)
	}
}

// TestDebugzManualCapture: an operator's ?capture=1 bypasses the rate limit
// and produces bundles even with no SLOs configured (diag dir alone arms the
// recorder, and an engine that only samples for the bundle's series).
func TestDebugzManualCapture(t *testing.T) {
	defer obs.SetEnabled(false)
	diagDir := filepath.Join(t.TempDir(), "diag")
	srv, base := startServer(t, trainedSystem(t), Config{DiagDir: diagDir})
	if srv.rec == nil {
		t.Fatal("recorder not armed by DiagDir alone")
	}
	if srv.sloEng == nil || srv.sloEng.Page().Enabled {
		t.Fatal("DiagDir alone must build a sampling engine that pages disabled")
	}
	var dbg DebugzPage
	for i := 1; i <= 2; i++ {
		if code := getJSON(t, base+"/debugz?capture=1", &dbg); code != 200 {
			t.Fatalf("/debugz?capture=1 #%d = %d (%+v)", i, code, dbg)
		}
		if dbg.Captured == "" || dbg.Status.Captures != int64(i) {
			t.Fatalf("capture #%d: %+v, want forced capture (rate limit bypassed)", i, dbg)
		}
	}
	if got := listBundles(t, diagDir); len(got) != 2 {
		t.Fatalf("bundles = %v, want 2 forced captures", got)
	}
	if _, err := os.Stat(filepath.Join(diagDir, dbg.Status.LastBundle, "meta.json")); err != nil {
		t.Fatalf("last bundle incomplete: %v", err)
	}
}

// sloHotPathInstrumentation is exactly the block the SLO layer added to
// handleQuery's success path, factored here so the zero-alloc test and the
// overhead benchmark measure the real thing.
func sloHotPathInstrumentation(fromApprox bool) {
	if !obs.Enabled() {
		return
	}
	reg := obs.Default()
	elapsed := time.Millisecond
	reg.Histogram(metricRequestSeconds).ObserveDuration(elapsed)
	if fromApprox {
		reg.Histogram(metricRungApprox).ObserveDuration(elapsed)
	} else {
		reg.Histogram(metricRungFull).ObserveDuration(elapsed)
	}
}

// TestSLOHotPathZeroAlloc is the acceptance bar: the request-path
// instrumentation the SLO layer added allocates nothing — disabled (the
// default) AND enabled (const metric names and the registry hit path are
// allocation-free).
func TestSLOHotPathZeroAlloc(t *testing.T) {
	obs.SetEnabled(false)
	if allocs := testing.AllocsPerRun(1000, func() { sloHotPathInstrumentation(true) }); allocs != 0 {
		t.Errorf("disabled path allocates %.1f per request, want 0", allocs)
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	sloHotPathInstrumentation(true) // warm the registry entries
	sloHotPathInstrumentation(false)
	if allocs := testing.AllocsPerRun(1000, func() { sloHotPathInstrumentation(true) }); allocs != 0 {
		t.Errorf("enabled path (approximation rung) allocates %.1f per request, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { sloHotPathInstrumentation(false) }); allocs != 0 {
		t.Errorf("enabled path (full rung) allocates %.1f per request, want 0", allocs)
	}
}

// BenchmarkSLODisabledOverhead records what the SLO instrumentation costs the
// request hot path with recording off (the shipped default: one atomic load)
// and on (three histogram observations). Recorded into the BENCH history by
// scripts/check.sh; the hard 0-alloc assertion lives in
// TestSLOHotPathZeroAlloc.
func BenchmarkSLODisabledOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		obs.SetEnabled(false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sloHotPathInstrumentation(i%2 == 0)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		obs.SetEnabled(true)
		defer obs.SetEnabled(false)
		sloHotPathInstrumentation(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sloHotPathInstrumentation(i%2 == 0)
		}
	})
}

// TestSLOExemplarIsAKeptTrace: the trace /sloz names as a burning SLO's
// exemplar is always one /tracez can show. Every real request below breaks a
// 1µs latency target, but with the tail sampler keeping no healthy trace
// (sample rate 0, 500ms slow threshold) none of them is kept, so the exemplar
// is empty or a kept trace; a request forced by a sampled traceparent is kept,
// and it is the exemplar.
func TestSLOExemplarIsAKeptTrace(t *testing.T) {
	withServerTracing(t, obs.TracingConfig{SampleRate: 0, SlowThreshold: 500 * time.Millisecond})
	clk := newSLOClock()
	srv, base := startServer(t, trainedSystem(t), Config{SLOLatencyP99: time.Microsecond, SLOClock: clk.now})
	exemplar := func() string {
		t.Helper()
		clk.advance(slo.SampleInterval)
		srv.sloEng.SampleNow()
		var page SlozPage
		if code := getJSON(t, base+"/sloz", &page); code != http.StatusOK {
			t.Fatalf("/sloz = %d", code)
		}
		return sloStatus(t, page.Page, "latency").ExemplarTraceID
	}
	srv.sloEng.SampleNow()
	for i := 0; i < 20; i++ {
		if code, resp := postQuery(t, base, approxRouteSQL, 0, 0); code != http.StatusOK {
			t.Fatalf("query %d: status %d, body %+v", i, code, resp)
		}
	}
	if id := exemplar(); id != "" {
		if _, ok := obs.KeptTrace(id); !ok {
			t.Fatalf("/sloz exemplar_trace_id %s is not a kept trace (%d kept)", id, len(obs.KeptTraces()))
		}
	}

	tid, httpResp, resp := postTraced(t, base, approxRouteSQL, 0)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("forced query: status %d, body %+v", httpResp.StatusCode, resp)
	}
	if id := exemplar(); id != tid.String() {
		t.Fatalf("/sloz exemplar_trace_id = %q, want the forced request's %s", id, tid)
	}
	debug := httptest.NewServer(obs.Handler())
	defer debug.Close()
	var rec obs.TraceRecord
	if code := getJSON(t, debug.URL+"/tracez?trace="+tid.String(), &rec); code != http.StatusOK || rec.Verdict != "forced" {
		t.Fatalf("/tracez?trace=%s = %d, verdict %q; want 200, forced", tid, code, rec.Verdict)
	}
}
