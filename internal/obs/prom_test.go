package obs

import (
	"bytes"
	"strings"
	"testing"
)

// promLines renders r and returns the exposition split into lines.
func promLines(t *testing.T, r *Registry) (string, []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	return out, strings.Split(strings.TrimRight(out, "\n"), "\n")
}

// TestPromHelpTypeOncePerFamily: every family gets exactly one HELP and one
// TYPE line, HELP immediately before TYPE, both before any of its samples.
func TestPromHelpTypeOncePerFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("server/requests").Add(1)
	r.Histogram("server/request_seconds").Observe(0.1)

	out, lines := promLines(t, r)
	helpSeen := map[string]int{}
	typeSeen := map[string]int{}
	for i, line := range lines {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			helpSeen[f[2]]++
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+f[2]+" ") {
				t.Errorf("HELP for %s not immediately followed by its TYPE:\n%s", f[2], out)
			}
		case strings.HasPrefix(line, "# TYPE "):
			typeSeen[f[2]]++
		}
	}
	for _, fam := range []string{"server_requests_total", "server_request_seconds"} {
		if helpSeen[fam] != 1 || typeSeen[fam] != 1 {
			t.Errorf("family %s: HELP×%d TYPE×%d, want exactly 1 of each\n%s",
				fam, helpSeen[fam], typeSeen[fam], out)
		}
	}
}

// TestPromNoDoubleTotalSuffix: a counter already named *_total must not
// become *_total_total.
func TestPromNoDoubleTotalSuffix(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingest/rows_total").Add(7)
	out, _ := promLines(t, r)
	if strings.Contains(out, "_total_total") {
		t.Fatalf("double _total suffix:\n%s", out)
	}
	if !strings.Contains(out, "ingest_rows_total 7") {
		t.Fatalf("missing ingest_rows_total sample:\n%s", out)
	}
}

// TestPromSanitizationCollision: two registry names that sanitize to the
// same family must not emit two TYPE lines — the first (sorted) name wins.
func TestPromSanitizationCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("a/b").Add(1)
	r.Counter("a_b").Add(2)
	// Cross-type collision too: a histogram whose sanitized name equals the
	// counter family.
	r.Histogram("a/b_total").Observe(9)

	out, lines := promLines(t, r)
	typeCount := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE a_b_total ") {
			typeCount++
		}
	}
	if typeCount != 1 {
		t.Fatalf("family a_b_total has %d TYPE lines, want 1:\n%s", typeCount, out)
	}
	sample := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "a_b_total ") {
			sample++
		}
	}
	if sample != 1 {
		t.Fatalf("family a_b_total has %d samples, want 1 (collisions dropped):\n%s", sample, out)
	}
}

// TestPromEscaping: backslashes, quotes, and newlines in help text (from the
// metric name) and exemplar label values must be escaped per the format.
func TestPromEscaping(t *testing.T) {
	if got := promEscapeLabel(`a\b"c` + "\n" + "d\te`"); got != `a\\b\"c\nd`+"\te`" {
		t.Fatalf("promEscapeLabel = %q", got)
	}
	if got := promEscapeHelp("x\\y\nz\"q"); got != `x\\y\nz"q` {
		t.Fatalf("promEscapeHelp = %q", got)
	}
	// End-to-end: a metric name with no letters still renders valid lines.
	r := NewRegistry()
	r.Counter("weird name/with spaces").Add(1)
	out, lines := promLines(t, r)
	for _, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.Fields(line)[0]
		if strings.ContainsAny(name, " \t\"\\") && !strings.Contains(name, "{") {
			t.Fatalf("unsanitized sample name %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "weird_name_with_spaces_total 1") {
		t.Fatalf("sanitized sample missing:\n%s", out)
	}
}

// TestPromBuildInfo: the exposition always carries the standard build-info
// gauge with its identifying labels.
func TestPromBuildInfo(t *testing.T) {
	out, _ := promLines(t, NewRegistry())
	if !strings.Contains(out, "# TYPE asqp_build_info gauge") {
		t.Fatalf("missing build_info TYPE:\n%s", out)
	}
	if !strings.Contains(out, "asqp_build_info{path=") || !strings.Contains(out, "goversion=") {
		t.Fatalf("missing build_info labels:\n%s", out)
	}
	if !strings.Contains(out, "} 1\n") {
		t.Fatalf("build_info value must be 1:\n%s", out)
	}
}
