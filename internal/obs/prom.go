package obs

import (
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in Prometheus text exposition format
// (served at /metrics?format=prom) so standard scrapers work against the
// debug server without a sidecar:
//
//   - counters become `<name>_total` (never double-suffixed: a counter
//     already named `*_total` keeps its name);
//   - histograms expand into cumulative `_bucket{le=...}` samples plus
//     `_sum`/`_count`, with each bucket's retained exemplar rendered in
//     OpenMetrics style (`# {trace_id="..."} value timestamp`) so tail
//     buckets link to concrete traces;
//   - one `asqp_build_info` gauge carries the module path/version and Go
//     toolchain as labels, the standard way to join metrics to a build.
//
// Conformance guarantees (regression-tested): `# HELP` and `# TYPE` appear
// exactly once per family, immediately before its samples; label values and
// help text are escaped per the exposition format (`\\`, `\"`, `\n`); when
// two registry names sanitize to the same family (`a/b` and `a_b`), the
// first (in sorted registry order) wins and later ones are dropped rather
// than emitting a second TYPE line for the family.
//
// Slash-separated metric names are sanitized to Prometheus identifiers
// (`server/request_seconds` → `server_request_seconds`).
func WritePrometheus(w io.Writer, r *Registry) error {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()

	// seen tracks every emitted family name so a sanitization collision
	// (within or across metric types) cannot produce duplicate TYPE lines.
	seen := make(map[string]bool, len(counters)+len(hists)+4)

	for _, name := range sortedKeys(counters) {
		pn := promName(name)
		if !strings.HasSuffix(pn, "_total") {
			pn += "_total"
		}
		if seen[pn] {
			continue
		}
		seen[pn] = true
		if err := writeFamilyHeader(w, pn, name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", pn, counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(hists) {
		pn := promName(name)
		// A histogram family owns pn plus three derived sample names.
		if seen[pn] || seen[pn+"_bucket"] || seen[pn+"_sum"] || seen[pn+"_count"] {
			continue
		}
		seen[pn], seen[pn+"_bucket"], seen[pn+"_sum"], seen[pn+"_count"] = true, true, true, true
		if err := writePromHistogram(w, pn, name, hists[name]); err != nil {
			return err
		}
	}
	return writeBuildInfo(w, seen)
}

// writeFamilyHeader emits the HELP/TYPE pair for one family. The help text
// is the registry's original (slash-path) name — enough to map the scraped
// family back to the source metric, and escaped so arbitrary names cannot
// break the exposition syntax.
func writeFamilyHeader(w io.Writer, pn, origName, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s asqp metric %s\n# TYPE %s %s\n",
		pn, promEscapeHelp(origName), pn, typ)
	return err
}

func writePromHistogram(w io.Writer, pn, origName string, h *Histogram) error {
	if err := writeFamilyHeader(w, pn, origName, "histogram"); err != nil {
		return err
	}
	var cum int64
	for i := 0; i <= numBuckets; i++ {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < numBuckets {
			le = promFloat(bucketBounds[i])
		}
		line := fmt.Sprintf("%s_bucket{le=\"%s\"} %d", pn, promEscapeLabel(le), cum)
		if ex := h.exemplars[i].Load(); ex != nil {
			// OpenMetrics exemplar: `# {label="..."} value timestamp`.
			line += fmt.Sprintf(" # {trace_id=\"%s\"} %s %s",
				promEscapeLabel(ex.TraceID.String()), promFloat(ex.Value),
				promFloat(float64(ex.When.UnixNano())/1e9))
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promFloat(h.Sum()), pn, h.Count())
	return err
}

// writeBuildInfo emits the standard `*_build_info` gauge: constant 1 with
// the build's identifying labels, so dashboards can join any series to the
// binary that produced it.
func writeBuildInfo(w io.Writer, seen map[string]bool) error {
	if seen["asqp_build_info"] {
		return nil
	}
	path, version, goVer := "unknown", "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Path != "" {
			path = bi.Main.Path
		}
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			goVer = bi.GoVersion
		}
	}
	_, err := fmt.Fprintf(w,
		"# HELP asqp_build_info Build metadata of the running binary.\n"+
			"# TYPE asqp_build_info gauge\n"+
			"asqp_build_info{path=\"%s\",version=\"%s\",goversion=\"%s\"} 1\n",
		promEscapeLabel(path), promEscapeLabel(version), promEscapeLabel(goVer))
	return err
}

// promName sanitizes a slash-path metric name into a Prometheus identifier.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscapeLabel escapes a label value per the text exposition format:
// backslash, double-quote, and line feed. (Unlike Go's %q it leaves every
// other byte alone — `\t` or non-ASCII must pass through verbatim.)
func promEscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promEscapeHelp escapes HELP text: backslash and line feed (quotes are
// legal in help text).
func promEscapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
