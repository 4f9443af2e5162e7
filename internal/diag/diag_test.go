package diag

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type testClock struct{ t time.Time }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestRecorder(t *testing.T, clk *testClock, mutate func(*Config), src Source) *Recorder {
	t.Helper()
	cfg := Config{
		Dir:         filepath.Join(t.TempDir(), "diag"),
		MinInterval: time.Minute,
		Now:         clk.now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCaptureWritesBundle(t *testing.T) {
	clk := &testClock{t: time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)}
	var journaled []string
	src := Source{
		Metrics: func() any { return map[string]int{"x": 1} },
		Series:  func() any { return map[string]string{"interval": "5s"} },
		SLO:     func() any { return map[string]bool{"enabled": true} },
		Traces:  func() any { return []string{"t1"} },
		Stats:   func() any { return map[string]bool{"ready": true} },
		Journal: func(reason, bundle string) { journaled = append(journaled, reason+":"+bundle) },
	}
	r := newTestRecorder(t, clk, nil, src)

	dir, err := r.Capture("slo-latency", false)
	if err != nil {
		t.Fatal(err)
	}
	if dir == "" {
		t.Fatal("capture suppressed unexpectedly")
	}
	for _, f := range []string{
		"meta.json", "metrics.json", "series.json", "slo.json",
		"traces.json", "stats.json",
		"goroutines.txt", "heap.pprof",
	} {
		path := filepath.Join(dir, f)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
		if info.Size() == 0 {
			t.Fatalf("bundle file %s is empty", f)
		}
	}
	// The goroutine dump must contain real stacks.
	g, _ := os.ReadFile(filepath.Join(dir, "goroutines.txt"))
	if !strings.Contains(string(g), "goroutine") {
		t.Fatalf("goroutines.txt lacks stacks: %q", string(g[:min(len(g), 80)]))
	}
	var meta map[string]any
	raw, _ := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err := json.Unmarshal(raw, &meta); err != nil || meta["reason"] != "slo-latency" {
		t.Fatalf("meta.json = %s (err %v)", raw, err)
	}
	if len(journaled) != 1 || !strings.HasPrefix(journaled[0], "slo-latency:bundle-") {
		t.Fatalf("journal calls = %v", journaled)
	}
	st := r.Status()
	if st.Captures != 1 || st.LastReason != "slo-latency" || len(st.Bundles) != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestRateLimitSuppressesAndForceBypasses(t *testing.T) {
	clk := &testClock{t: time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)}
	r := newTestRecorder(t, clk, nil, Source{})

	if dir, err := r.Capture("first", false); err != nil || dir == "" {
		t.Fatalf("first capture: %q %v", dir, err)
	}
	// Within MinInterval: suppressed.
	if dir, err := r.Capture("second", false); err != nil || dir != "" {
		t.Fatalf("expected suppression, got %q %v", dir, err)
	}
	// Forced: bypasses the limiter.
	if dir, err := r.Capture("forced", true); err != nil || dir == "" {
		t.Fatalf("forced capture: %q %v", dir, err)
	}
	// After the interval: allowed again.
	clk.advance(2 * time.Minute)
	if dir, err := r.Capture("third", false); err != nil || dir == "" {
		t.Fatalf("post-interval capture: %q %v", dir, err)
	}
	st := r.Status()
	if st.Captures != 3 || st.Suppressed != 1 {
		t.Fatalf("status = %+v, want 3 captures / 1 suppressed", st)
	}
}

func TestRotationByCountAndBytes(t *testing.T) {
	clk := &testClock{t: time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)}
	r := newTestRecorder(t, clk, func(c *Config) {
		c.MinInterval = time.Millisecond
	}, Source{})
	for i := 0; i < maxBundles+3; i++ {
		if _, err := r.Capture("r", true); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Second)
	}
	st := r.Status()
	if len(st.Bundles) != maxBundles {
		t.Fatalf("retained %d bundles, want %d: %v", len(st.Bundles), maxBundles, st.Bundles)
	}
	// The retained ones are the newest (lexically last by timestamped name).
	newest := st.Bundles[maxBundles-1]
	if !strings.Contains(newest, st.LastBundle[:20]) && newest != st.LastBundle {
		t.Fatalf("newest bundle missing after rotation: %v (last %s)", st.Bundles, st.LastBundle)
	}

	// Byte cap: tiny budget forces pruning down to the newest bundle.
	r2 := newTestRecorder(t, clk, func(c *Config) {
		c.MaxTotalBytes = 1 // every rotation prunes all but... everything beyond the cap
	}, Source{})
	r2.Capture("a", true)
	clk.advance(time.Second)
	r2.Capture("b", true)
	st2 := r2.Status()
	if len(st2.Bundles) != 0 {
		t.Fatalf("byte-cap rotation retained %v, want none under a 1-byte cap", st2.Bundles)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if dir, err := r.Capture("x", true); dir != "" || err != nil {
		t.Fatalf("nil capture = %q %v", dir, err)
	}
	if st := r.Status(); st.Captures != 0 || st.Dir != "" {
		t.Fatalf("nil status = %+v", st)
	}
}

func TestNewRequiresDir(t *testing.T) {
	if _, err := New(Config{}, Source{}); err == nil {
		t.Fatal("New without Dir must fail")
	}
}

func TestCaptureZeroAllocWhenDisabled(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Capture("x", false)
	})
	if allocs != 0 {
		t.Fatalf("nil Capture allocates %v/op, want 0", allocs)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
