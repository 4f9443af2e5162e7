package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"asqprl/internal/baselines"
	"asqprl/internal/metrics"
)

// TestAllRunnersProduceWellFormedTables runs every experiment at Fast()
// sizing and checks structural well-formedness: at least one table, matching
// column counts, non-empty cells.
func TestAllRunnersProduceWellFormedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	for _, r := range Registry() {
		t.Run(r.ID, func(t *testing.T) {
			res, err := r.Run(Fast())
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(res.Tables) == 0 {
				t.Fatalf("%s: no tables", r.ID)
			}
			for _, tab := range res.Tables {
				if tab.Title == "" || len(tab.Header) == 0 {
					t.Errorf("%s: table missing title/header", r.ID)
				}
				if len(tab.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", r.ID, tab.Title)
				}
				for ri, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Errorf("%s: table %q row %d has %d cells, want %d",
							r.ID, tab.Title, ri, len(row), len(tab.Header))
					}
					for ci, cell := range row {
						if cell.String() == "" {
							t.Errorf("%s: table %q cell (%d,%d) empty", r.ID, tab.Title, ri, ci)
						}
					}
				}
				var buf bytes.Buffer
				tab.Render(&buf)
				if !strings.Contains(buf.String(), tab.Title) {
					t.Errorf("%s: render missing title", r.ID)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	r, err := ByID("fig2")
	if err != nil || r.ID != "fig2" {
		t.Errorf("ByID(fig2) = %v, %v", r.ID, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestParamsConfigs(t *testing.T) {
	p := Full()
	cfg := p.asqpConfig(7)
	if cfg.K != p.K || cfg.F != p.F || cfg.Seed != 7 {
		t.Errorf("asqpConfig wrong: %+v", cfg)
	}
	lightCfg := p.asqpConfig(7)
	light(&lightCfg)
	if lightCfg.TrainFraction >= 1 || lightCfg.Episodes >= cfg.Episodes {
		t.Errorf("light should shrink work: %+v", lightCfg)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"A", "LongHeader"},
	}
	tab.AddRow(Text("x"), Count(1))
	tab.AddRow(Text("12.5µs"), Count(2)) // a multi-byte cell must not shift the next column
	var buf bytes.Buffer
	tab.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), buf.String())
	}
	// Column B should start at the same rune offset in each data line.
	off := len([]rune(lines[1][:strings.Index(lines[1], "LongHeader")]))
	if got := len([]rune(lines[4][:strings.LastIndex(lines[4], "2")])); got != off {
		t.Errorf("columns not aligned (%d vs %d):\n%s", got, off, buf.String())
	}
}

// meanOf is the mean test score of the one sample of method on dataset.
func meanOf(t *testing.T, samples []Sample, dataset, method string) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Dataset == dataset && s.Method == method {
			return metrics.Mean(s.Test)
		}
	}
	t.Fatalf("no sample of %s on %s", method, dataset)
	return 0
}

// TestFig2ShapeHolds verifies the headline claim's shape at fast scale:
// ASQP-RL outscores random sampling, and the VAE is far behind.
func TestFig2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	res, err := Fig2Overall(Fast())
	if err != nil {
		t.Fatal(err)
	}
	asqp, ran, vae := meanOf(t, res.Samples, "IMDB", asqp), meanOf(t, res.Samples, "IMDB", "RAN"), meanOf(t, res.Samples, "IMDB", "VAE")
	if asqp <= ran {
		t.Errorf("ASQP-RL (%.3f) should beat RAN (%.3f)", asqp, ran)
	}
	if vae >= asqp {
		t.Errorf("VAE (%.3f) should be far below ASQP-RL (%.3f)", vae, asqp)
	}
}

// TestEvaluatePaired holds evaluate to its two promises: every method of a
// seed is handed the same dataset value (and a different one per seed), and
// the samples do not depend on the scoring parallelism.
func TestEvaluatePaired(t *testing.T) {
	p := Fast()
	p.Seeds = 2
	saw := map[string][]*dataset{}
	spy := func(b baselines.Builder) method {
		m := subsets(b)[0]
		build := m.build
		m.build = func(ds *dataset, p Params, seed int64) (built, error) {
			saw[m.name] = append(saw[m.name], ds)
			return build(ds, p, seed)
		}
		return m
	}
	methods := []method{spy(baselines.Random{}), spy(baselines.TopQueried{}), spy(baselines.Verdict{})}

	run := func(parallelism int) []Sample {
		p.Parallelism = parallelism
		samples, err := evaluate(on(p, "IMDB"), methods)
		if err != nil {
			t.Fatal(err)
		}
		for i := range samples { // wall-clock is the one thing allowed to differ
			samples[i].Setup, samples[i].QueryAvg = 0, 0
		}
		return samples
	}
	serial := run(1)
	if len(serial) != p.Seeds*len(methods) {
		t.Fatalf("%d samples, want %d", len(serial), p.Seeds*len(methods))
	}
	for _, m := range methods[1:] {
		if !reflect.DeepEqual(saw[m.name], saw[methods[0].name]) {
			t.Errorf("%s and %s were not handed the same dataset values", m.name, methods[0].name)
		}
	}
	if first := saw[methods[0].name]; first[0] == first[1] {
		t.Error("two seeds shared one dataset value")
	}
	if parallel := run(4); !reflect.DeepEqual(serial, parallel) {
		t.Error("samples differ between Parallelism 1 and 4")
	}
}

func TestWriteMarkdown(t *testing.T) {
	const before, between, after = "# Doc\nintro <!-- not a marker -->\n", "\nprose between\n", "\ntrailing text\n"
	doc := before + "<!-- fig4:begin -->\nstale\n<!-- fig4:end -->" + between + "<!-- fig5:begin --><!-- fig5:end -->" + after
	path := filepath.Join(t.TempDir(), "doc.md")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	tab := &Table{Title: "demo", Header: []string{"A", "Score"}}
	tab.AddRow(Text("x"), Score{{0.2, 0.4}, {0.6}})
	tables := []*Table{tab, tab}

	write(doc)
	if err := WriteMarkdown(path, "fig4", tables); err != nil {
		t.Fatal(err)
	}
	first := read()
	var rendered bytes.Buffer
	tab.Render(&rendered)
	want := before + "<!-- fig4:begin -->\n```\n" + rendered.String() + "\n" + rendered.String() + "```\n<!-- fig4:end -->" + between + "<!-- fig5:begin --><!-- fig5:end -->" + after
	if first != want {
		t.Errorf("after one write:\n%s\nwant:\n%s", first, want)
	}
	if err := WriteMarkdown(path, "fig4", tables); err != nil {
		t.Fatal(err)
	}
	if second := read(); second != first {
		t.Errorf("second write changed the file:\n%s", second)
	}

	for name, bad := range map[string]string{
		"missing begin": strings.Replace(doc, "<!-- fig4:begin -->", "", 1),
		"missing end":   strings.Replace(doc, "<!-- fig4:end -->", "", 1),
		"duplicated":    doc + "<!-- fig4:begin -->",
		"reversed":      "<!-- fig4:end --> <!-- fig4:begin -->",
	} {
		write(bad)
		if err := WriteMarkdown(path, "fig4", tables); err == nil {
			t.Errorf("%s marker: no error", name)
		}
		if read() != bad {
			t.Errorf("%s marker: file was modified", name)
		}
	}
	write(doc)
	if err := WriteMarkdown(path, "fig99", tables); err == nil {
		t.Error("unknown experiment id: no error")
	}
}

// BenchmarkHeadline runs Figure 2 at smoke sizing and reports the paper's
// headline number as this repository measures it: ASQP-RL's mean test score
// on IMDB.
func BenchmarkHeadline(b *testing.B) {
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Fig2Overall(Fast()); err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Samples {
		if s.Dataset == "IMDB" && s.Method == asqp {
			b.ReportMetric(metrics.Mean(s.Test), "headline_score")
		}
	}
}
