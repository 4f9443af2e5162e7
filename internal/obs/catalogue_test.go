package obs_test

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"asqprl/internal/obs"
	_ "asqprl/internal/server" // links every package that declares a metric
)

// declared is the default registry's name set once every package has
// initialised and before any test has run: exactly the package-level handles.
var declared = obs.Default().Snapshot()

// TestMetricCatalogue holds DESIGN.md §7's metric catalogue to the registry in
// both directions: every name a package declares has a row of its type, every
// row names a declared metric, and every row says who reads it.
func TestMetricCatalogue(t *testing.T) {
	rows := readCatalogue(t, filepath.Join("..", "..", "DESIGN.md"))

	have := map[string]string{}
	for name := range declared.Counters {
		have[name] = "Counter"
	}
	for name := range declared.Histograms {
		have[name] = "Histogram"
	}
	names := make([]string, 0, len(have))
	for name := range have {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch row, ok := rows[name]; {
		case !ok:
			t.Errorf("%s %q is declared but has no row in DESIGN.md §7's metric catalogue", have[name], name)
		case row.kind != have[name]:
			t.Errorf("catalogue row %q says %s, the registry holds a %s", name, row.kind, have[name])
		}
	}
	for name, row := range rows {
		if _, ok := have[name]; !ok {
			t.Errorf("catalogue row %q names no declared metric", name)
		}
		if row.consumer == "" || strings.Contains(row.consumer, "doc only") {
			t.Errorf("catalogue row %q names no reader (%q): a metric nothing reads is deleted, not documented", name, row.consumer)
		}
	}
	if len(rows) > 30 {
		t.Errorf("the catalogue has %d rows; past 30, apply §7's rule before adding one", len(rows))
	}
}

type catalogueRow struct{ kind, consumer string }

// readCatalogue returns the rows of the table between DESIGN.md's
// metric-catalogue markers, by metric name.
func readCatalogue(t *testing.T, path string) map[string]catalogueRow {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "<!-- metric-catalogue:begin -->")
	table, _, ok2 := strings.Cut(rest, "<!-- metric-catalogue:end -->")
	if !ok || !ok2 {
		t.Fatalf("%s has no metric-catalogue markers", path)
	}
	rows := map[string]catalogueRow{}
	// | `name` | type | `owner` | rule | consumer |
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\| (\\w+) \\|[^|]*\\|[^|]*\\| ([^|]*?) *\\|$").FindAllStringSubmatch(table, -1) {
		rows[m[1]] = catalogueRow{kind: m[2], consumer: m[3]}
	}
	if len(rows) == 0 {
		t.Fatalf("%s: the metric catalogue has no rows", path)
	}
	return rows
}
