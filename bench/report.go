package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// reportMain turns the trace files of the four workloads into the per-layer
// latency budget, LAYERS.md.
func reportMain(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the traced runs to report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	var b strings.Builder
	b.WriteString("# Per-layer latency budget\n\n")
	b.WriteString("Written by `go run -C bench . report` from the traced runs (`-trace 1`) in `bench/out/`.\n")
	b.WriteString("Each replayed request is one trace. Its root is a real HTTP round trip to the server child;\n")
	b.WriteString("every span below it is the same input run once, standalone, in the bench process against the\n")
	b.WriteString("system loaded from the child's snapshot. Children are separate executions (warm caches, no\n")
	b.WriteString("nesting), so this is a budget, not a profile. A layer's self time is its duration minus its\n")
	b.WriteString("children's, clamped at 0; shares are self mean over the mean of the trace's root spans.\n")
	for _, w := range workloads {
		base := filepath.Join(outDir, fmt.Sprintf("%s-%d", w.Name, *seed))
		spans, err := readSpans(base + ".trace.jsonl")
		if err != nil {
			return fmt.Errorf("%w (run `bench/run.sh` or the workload with -trace 1 first)", err)
		}
		var doc runDoc
		if data, err := os.ReadFile(base + ".layers.json"); err == nil {
			_ = json.Unmarshal(data, &doc)
		}
		fmt.Fprintf(&b, "\n## %s\n\n%s\n\nseed %d, git %s, %s, GOMAXPROCS %d, %s\n",
			w.Name, w.Why, *seed, doc.Env.GitSHA, doc.Env.GoVersion, doc.Env.GOMAXPROCS, doc.Env.CPUModel)
		for _, g := range groupTraces(spans) {
			writeBudget(&b, g)
		}
	}
	path := filepath.Join(root, "bench", "LAYERS.md")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, sc.Err()
}

// layerRow aggregates one span name over the traces of a group.
type layerRow struct {
	name   string
	parent string
	busy   []float64 // µs per trace
	self   []float64
}

// traceGroup is the traces that share a set of root span names: the replayed
// requests of a run, or the offline pipeline's stages.
type traceGroup struct {
	roots  []string
	traces int
	rows   []*layerRow
}

// selfTimes returns each span's duration minus its children's, clamped at 0,
// keyed by span id.
func selfTimes(trace []span) map[int]float64 {
	self := make(map[int]float64, len(trace))
	for _, s := range trace {
		self[s.Span] += float64(s.EndNs-s.StartNs) / 1000
	}
	for _, s := range trace {
		if s.Parent != 0 {
			self[s.Parent] -= float64(s.EndNs-s.StartNs) / 1000
		}
	}
	for id, v := range self {
		self[id] = max(0, v)
	}
	return self
}

func groupTraces(spans []span) []*traceGroup {
	byTrace := map[int][]span{}
	var order []int
	for _, s := range spans {
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	groups := map[string]*traceGroup{}
	var groupOrder []string
	for _, id := range order {
		trace := byTrace[id]
		names := map[int]string{}
		var roots []string
		for _, s := range trace {
			names[s.Span] = s.Name
			if s.Parent == 0 {
				roots = append(roots, s.Name)
			}
		}
		sort.Strings(roots)
		key := strings.Join(roots, "+")
		g := groups[key]
		if g == nil {
			g = &traceGroup{roots: roots}
			groups[key] = g
			groupOrder = append(groupOrder, key)
		}
		g.traces++
		self := selfTimes(trace)
		for _, s := range trace {
			var row *layerRow
			for _, r := range g.rows {
				if r.name == s.Name {
					row = r
				}
			}
			if row == nil {
				row = &layerRow{name: s.Name, parent: names[s.Parent]}
				g.rows = append(g.rows, row)
			}
			row.busy = append(row.busy, float64(s.EndNs-s.StartNs)/1000)
			row.self = append(row.self, self[s.Span])
		}
	}
	out := make([]*traceGroup, 0, len(groups))
	for _, k := range groupOrder {
		out = append(out, groups[k])
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func writeBudget(b *strings.Builder, g *traceGroup) {
	var rootMean float64
	for _, r := range g.rows {
		if r.parent == "" {
			rootMean += mean(r.busy)
		}
	}
	fmt.Fprintf(b, "\n%d trace(s), root %s, root mean %.1f µs\n\n", g.traces, strings.Join(g.roots, " + "), rootMean)
	b.WriteString("| layer span | under | calls | busy p50 µs | self p50 µs | self mean µs | share of root |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---:|\n")
	var selfSum float64
	for _, r := range g.rows {
		selfSum += mean(r.self)
		fmt.Fprintf(b, "| `%s` | %s | %d | %.1f | %.1f | %.1f | %.1f %% |\n",
			r.name, r.parent, len(r.busy), quantile(r.busy, 0.5), quantile(r.self, 0.5), mean(r.self), 100*mean(r.self)/rootMean)
	}
	fmt.Fprintf(b, "\nΣ self means = %.1f µs = %.1f %% of the root mean (the difference is clamping).\n", selfSum, 100*selfSum/rootMean)
	for _, r := range g.rows {
		if r.name != "server.handler" {
			continue
		}
		var sub float64
		for _, c := range g.rows {
			if inSubtree(g, c, "server.handler") {
				sub += mean(c.self)
			}
		}
		fmt.Fprintf(b, "`server.handler` mean %.1f µs; Σ self means of its subtree %.1f µs.\n", mean(r.busy), sub)
	}
}

func inSubtree(g *traceGroup, r *layerRow, root string) bool {
	for r != nil {
		if r.name == root {
			return true
		}
		var up *layerRow
		for _, c := range g.rows {
			if c.name == r.parent {
				up = c
			}
		}
		r = up
	}
	return false
}
