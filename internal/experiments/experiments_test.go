package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"asqprl/internal/baselines"
	"asqprl/internal/core"
	"asqprl/internal/metrics"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
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
			// Only fig4 (no methods) and fig12 (not Equation 1) keep bodies of
			// their own; every other experiment stands on evaluate.
			if len(res.Samples) == 0 && r.ID != "fig4" && r.ID != "fig12" {
				t.Errorf("%s: no samples", r.ID)
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

// buildCall is one call of a method's build (prev nil) or next, as evaluate
// made it.
type buildCall struct {
	method string
	seed   int64
	ds     *dataset
	prev   *built
	out    built
}

// spy wraps methods so that every call of their build or next is logged.
func spy(methods []method, log *[]buildCall) []method {
	out := make([]method, len(methods))
	for i, m := range methods {
		build, next := m.build, m.next
		m.build = func(ds *dataset, p Params, seed int64) (built, error) {
			b, err := build(ds, p, seed)
			*log = append(*log, buildCall{m.name, seed, ds, nil, b})
			return b, err
		}
		if next != nil {
			m.next = func(prev built, ds *dataset, p Params, seed int64) (built, error) {
				b, err := next(prev, ds, p, seed)
				*log = append(*log, buildCall{m.name, seed, ds, &prev, b})
				return b, err
			}
		}
		out[i] = m
	}
	return out
}

// TestEvaluatePaired holds evaluate to its promises: within a seed every
// method under every condition of the same dataset sizing is handed one
// dataset value (a different one per seed); a continuing method is handed
// its own build at the seed's previous condition and nothing at the first;
// and the samples do not depend on the scoring parallelism.
func TestEvaluatePaired(t *testing.T) {
	p := Fast()
	p.Seeds = 2
	half := p
	half.K /= 2
	conds := []condition{{point: "k", dataset: "IMDB", p: p}, {point: "k/2", dataset: "IMDB", p: half}}
	continuing := func(m method) method {
		m.next = func(_ built, ds *dataset, p Params, seed int64) (built, error) { return m.build(ds, p, seed) }
		return m
	}
	base := subsets(baselines.Random{}, baselines.TopQueried{}, baselines.Verdict{})
	var log []buildCall
	methods := spy([]method{base[0], continuing(base[1]), continuing(base[2])}, &log)

	run := func(parallelism int) []Sample {
		log = nil
		for i := range conds {
			conds[i].p.Parallelism = parallelism
		}
		samples, err := evaluate(conds, methods)
		if err != nil {
			t.Fatal(err)
		}
		for i := range samples { // wall-clock is the one thing allowed to differ
			samples[i].Setup, samples[i].QueryAvg = 0, 0
		}
		return samples
	}
	serial := run(1)
	if len(serial) != p.Seeds*len(conds)*len(methods) {
		t.Fatalf("%d samples, want %d", len(serial), p.Seeds*len(conds)*len(methods))
	}
	datasets := map[int64]*dataset{}
	last := map[string]built{}
	for _, c := range log {
		if ds, ok := datasets[c.seed]; !ok {
			datasets[c.seed] = c.ds
		} else if ds != c.ds {
			t.Errorf("%s seed %d: handed another dataset value than the seed's other calls", c.method, c.seed)
		}
		key := fmt.Sprint(c.method, c.seed)
		prev, seen := last[key]
		if seen && c.method != base[0].name {
			if c.prev == nil || c.prev.db != prev.db {
				t.Errorf("%s seed %d: not handed its own previous build", c.method, c.seed)
			}
		} else if c.prev != nil {
			t.Errorf("%s seed %d: handed a previous build at its first condition, or though it does not continue", c.method, c.seed)
		}
		last[key] = c.out
	}
	if len(datasets) != p.Seeds || datasets[p.Seed] == datasets[p.Seed+1000] {
		t.Errorf("%d dataset values over %d seeds", len(datasets), p.Seeds)
	}
	if parallel := run(4); !reflect.DeepEqual(serial, parallel) {
		t.Error("samples differ between Parallelism 1 and 4")
	}
}

// systemsPerSeed is the set of learners each seed's calls returned.
func systemsPerSeed(log []buildCall, method string) map[int64]map[*core.System]bool {
	out := map[int64]map[*core.System]bool{}
	for _, c := range log {
		if c.method == method {
			if out[c.seed] == nil {
				out[c.seed] = map[*core.System]bool{}
			}
			out[c.seed][c.out.sys] = true
		}
	}
	return out
}

// TestFig8TrainsOncePerSeed holds Figure 8's learner to one core.Train per
// seed, and its per-query test scores at every k to those of a fresh
// training per k.
func TestFig8TrainsOncePerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	p := Fast()
	p.Seeds = 2
	points, methods := memorySweep(p)
	var log []buildCall
	samples, err := evaluate(points, spy(methods[:1], &log))
	if err != nil {
		t.Fatal(err)
	}
	systems := systemsPerSeed(log, asqp)
	for seed, s := range systems {
		if len(s) != 1 {
			t.Errorf("seed %d: %d trainings, want 1", seed, len(s))
		}
	}
	if len(systems) != p.Seeds || len(samples) != p.Seeds*len(points) {
		t.Fatalf("%d seeds, %d samples", len(systems), len(samples))
	}
	cfg := func(seed int64) core.Config {
		c := p.asqpConfig(seed)
		c.K = points[len(points)-1].p.K
		return c
	}
	for _, s := range samples {
		ds := loadDataset("IMDB", p, s.Seed)
		k, _ := strconv.Atoi(s.Point)
		b, err := trainOn(ds, ds.train, cfg(s.Seed), k)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := metrics.PerQueryScoresWith(ds.db, b.db, ds.test, p.F, ds.scoreOpts(p))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Test, fresh) {
			t.Errorf("k = %s seed %d: scores differ from a fresh training", s.Point, s.Seed)
		}
	}
}

// TestFig6FineTunesInsteadOfReplaying holds Figure 6 to one training and one
// fine-tune per refinement for the learner, and one build for each static
// baseline, per seed.
func TestFig6FineTunesInsteadOfReplaying(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	p := Fast()
	p.Seeds = 2
	phases, methods := refinements(p)
	var log []buildCall
	if _, err := evaluate(phases, spy(methods, &log)); err != nil {
		t.Fatal(err)
	}
	systems := systemsPerSeed(log, asqp)
	if len(systems) != p.Seeds {
		t.Fatalf("learner built under %d seeds, want %d", len(systems), p.Seeds)
	}
	for seed, s := range systems {
		for sys := range s {
			if len(s) != 1 || sys.Stats().FineTunes != len(phases)-1 {
				t.Errorf("seed %d: %d trainings, %d fine-tunes; want 1 and %d", seed, len(s), sys.Stats().FineTunes, len(phases)-1)
			}
		}
	}
	sets := map[string]map[*table.Database]bool{}
	for _, c := range log {
		if c.method != asqp {
			key := fmt.Sprint(c.method, c.seed)
			if sets[key] == nil {
				sets[key] = map[*table.Database]bool{}
			}
			sets[key][c.out.db] = true
		}
	}
	for key, s := range sets {
		if len(s) != 1 {
			t.Errorf("%s: %d builds, want 1", key, len(s))
		}
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
	var rendered bytes.Buffer
	tab.Render(&rendered)
	body := rendered.Bytes()

	write(doc)
	if err := WriteMarkdown(path, "fig4", body); err != nil {
		t.Fatal(err)
	}
	first := read()
	want := before + "<!-- fig4:begin -->\n```\n" + rendered.String() + "```\n<!-- fig4:end -->" + between + "<!-- fig5:begin --><!-- fig5:end -->" + after
	if first != want {
		t.Errorf("after one write:\n%s\nwant:\n%s", first, want)
	}
	if err := WriteMarkdown(path, "fig4", body); err != nil {
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
		if err := WriteMarkdown(path, "fig4", body); err == nil {
			t.Errorf("%s marker: no error", name)
		}
		if read() != bad {
			t.Errorf("%s marker: file was modified", name)
		}
	}
	write(doc)
	if err := WriteMarkdown(path, "fig99", body); err == nil {
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

// TestRepresentativesAreDistinct: on Full()'s seed-1 training splits k-means
// leaves clusters empty, and an empty cluster yields no representative — no
// training statement is a representative twice, and every representative
// carries weight.
func TestRepresentativesAreDistinct(t *testing.T) {
	p := Full()
	for _, name := range []string{"IMDB", "MAS"} {
		ds := loadDataset(name, p, p.Seed)
		pre, err := core.Preprocess(ds.db, ds.train, p.asqpConfig(p.Seed))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := map[*sqlparse.Select]bool{}
		for i, rep := range pre.Reps {
			if seen[rep.Stmt] {
				t.Errorf("%s: representative %d repeats statement %q", name, i, rep.Stmt)
			}
			seen[rep.Stmt] = true
			if rep.Weight <= 0 {
				t.Errorf("%s: representative %d (%q) has weight %v", name, i, rep.Stmt, rep.Weight)
			}
		}
	}
}
