// Package diag is the flight recorder: when an SLO enters fast-burn (or an
// operator hits /debugz?capture=1) it captures a diagnostic bundle — the
// windowed metric series, the tail-sampled trace ring, the server's /stats
// state, and goroutine + heap profiles — into a size-rotated directory, so
// the moments around an alert survive even if the process dies before anyone
// can attach.
//
// Captures are rate-limited (one per DefaultMinInterval unless forced) and
// the directory is bounded both by bundle count (8) and total bytes (64 MiB):
// the recorder can run unattended for months without filling a disk. These
// bounds are constants; the directory is the only setting. A nil *Recorder
// is a valid no-op, matching the repo's disabled-path contract.
package diag

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config places the recorder.
type Config struct {
	// Dir is the bundle directory (created if missing). Required.
	Dir string
	// Now is the clock; defaults to time.Now (injectable for tests).
	Now func() time.Time
}

// DefaultMinInterval is the least gap between unforced captures.
const DefaultMinInterval = time.Minute

// The directory's bounds: retained bundles and their total bytes; the oldest
// bundle is pruned first.
const (
	maxBundles = 8
	maxBytes   = 64 << 20
)

// Source provides the state a bundle captures. Every field is optional;
// nil collectors are skipped. Collectors run at capture time.
type Source struct {
	Metrics func() any // registry snapshot
	Series  func() any // windowed per-interval series (obs.TimeSeries)
	SLO     func() any // SLO engine page
	Traces  func() any // tail-sampled trace ring
	Stats   func() any // server /stats (breaker/admission/retrain/WAL)
	// Journal stamps a diag/bundle event (reason + bundle name) onto the
	// WAL after a successful capture, so recovery can report "crashed
	// while alerting".
	Journal func(reason, bundle string)
}

// Status is the recorder's state for /debugz and /stats.
type Status struct {
	Dir        string    `json:"dir"`
	Captures   int64     `json:"captures"`
	Suppressed int64     `json:"suppressed"`
	Failed     int64     `json:"failed"`
	LastBundle string    `json:"last_bundle,omitempty"`
	LastReason string    `json:"last_reason,omitempty"`
	LastAt     time.Time `json:"last_at"`
	Bundles    []string  `json:"bundles,omitempty"`
}

// Recorder writes diagnostic bundles. Nil is a no-op.
type Recorder struct {
	cfg      Config
	src      Source
	maxBytes int64

	mu         sync.Mutex
	lastAt     time.Time
	captures   int64
	suppressed int64
	failed     int64
	lastBundle string
	lastReason string
	seq        int64 // tie-breaker so bundles within one second sort stably
}

// New builds a recorder and creates its directory. cfg.Dir must be set.
func New(cfg Config, src Source) (*Recorder, error) {
	return newRecorder(cfg, src, maxBytes)
}

// newRecorder is New with an explicit byte bound on the directory.
func newRecorder(cfg Config, src Source, maxBytes int64) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("diag: Dir is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("diag: create dir: %w", err)
	}
	return &Recorder{cfg: cfg, src: src, maxBytes: maxBytes}, nil
}

// Capture writes one bundle for reason. Unforced captures inside
// DefaultMinInterval of the previous one are suppressed (returned path is
// empty, error nil). The returned path is the bundle directory.
func (r *Recorder) Capture(reason string, force bool) (string, error) {
	if r == nil {
		return "", nil
	}
	now := r.cfg.Now()
	r.mu.Lock()
	if !force && !r.lastAt.IsZero() && now.Sub(r.lastAt) < DefaultMinInterval {
		r.suppressed++
		r.mu.Unlock()
		return "", nil
	}
	// Reserve the slot before the (slow) write so concurrent triggers
	// collapse into one bundle.
	r.lastAt = now
	r.seq++
	seq := r.seq
	r.mu.Unlock()

	name := fmt.Sprintf("bundle-%s-%03d-%s", now.UTC().Format("20060102T150405Z"), seq, sanitizeReason(reason))
	dir := filepath.Join(r.cfg.Dir, name)
	err := r.write(dir, reason, now)

	r.mu.Lock()
	if err != nil {
		r.failed++
		r.mu.Unlock()
		os.RemoveAll(dir)
		return "", err
	}
	r.captures++
	r.lastBundle = name
	r.lastReason = reason
	r.mu.Unlock()

	r.rotate()
	if r.src.Journal != nil {
		r.src.Journal(reason, name)
	}
	return dir, nil
}

// write materializes one bundle directory.
func (r *Recorder) write(dir, reason string, now time.Time) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := map[string]any{
		"reason":      reason,
		"captured_at": now.UTC(),
	}
	if err := writeJSONFile(filepath.Join(dir, "meta.json"), meta); err != nil {
		return err
	}
	parts := []struct {
		file string
		fn   func() any
	}{
		{"metrics.json", r.src.Metrics},
		{"series.json", r.src.Series},
		{"slo.json", r.src.SLO},
		{"traces.json", r.src.Traces},
		{"stats.json", r.src.Stats},
	}
	for _, p := range parts {
		if p.fn == nil {
			continue
		}
		if err := writeJSONFile(filepath.Join(dir, p.file), p.fn()); err != nil {
			return err
		}
	}
	// Goroutine dump (debug=2 gives full stacks, the on-call's first ask).
	gf, err := os.Create(filepath.Join(dir, "goroutines.txt"))
	if err != nil {
		return err
	}
	if p := pprof.Lookup("goroutine"); p != nil {
		err = p.WriteTo(gf, 2)
	}
	if cerr := gf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	hf, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		return err
	}
	if p := pprof.Lookup("heap"); p != nil {
		err = p.WriteTo(hf, 0)
	}
	if cerr := hf.Close(); err == nil {
		err = cerr
	}
	return err
}

// rotate prunes oldest bundles beyond maxBundles or r.maxBytes.
func (r *Recorder) rotate() {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return
	}
	var bundles []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			bundles = append(bundles, e.Name())
		}
	}
	// Bundle names embed a UTC timestamp + sequence, so the lexical order
	// is the capture order.
	sort.Strings(bundles)
	sizes := make(map[string]int64, len(bundles))
	var total int64
	for _, b := range bundles {
		sz := dirSize(filepath.Join(r.cfg.Dir, b))
		sizes[b] = sz
		total += sz
	}
	for len(bundles) > 0 && (len(bundles) > maxBundles || total > r.maxBytes) {
		victim := bundles[0]
		bundles = bundles[1:]
		total -= sizes[victim]
		os.RemoveAll(filepath.Join(r.cfg.Dir, victim))
	}
}

// Status reports recorder state. Nil-safe (zero status).
func (r *Recorder) Status() Status {
	if r == nil {
		return Status{}
	}
	r.mu.Lock()
	st := Status{
		Dir:        r.cfg.Dir,
		Captures:   r.captures,
		Suppressed: r.suppressed,
		Failed:     r.failed,
		LastBundle: r.lastBundle,
		LastReason: r.lastReason,
		LastAt:     r.lastAt,
	}
	r.mu.Unlock()
	if entries, err := os.ReadDir(r.cfg.Dir); err == nil {
		for _, e := range entries {
			if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
				st.Bundles = append(st.Bundles, e.Name())
			}
		}
		sort.Strings(st.Bundles)
	}
	return st
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Diagnostic state must never abort a capture wholesale; record
		// the marshal failure in place of the payload.
		data = []byte(fmt.Sprintf("{\"marshal_error\": %q}", err.Error()))
	}
	return os.WriteFile(path, data, 0o644)
}

// sanitizeReason makes a reason safe as a path component.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	var b strings.Builder
	for _, c := range reason {
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if ok {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	s := b.String()
	if len(s) > 40 {
		s = s[:40]
	}
	return s
}

func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}
