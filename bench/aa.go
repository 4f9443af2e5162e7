package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// aaMain compares two sets of runs of the same commit (bench/out/aa/a and
// bench/out/aa/b, filled by aa.sh): per workload and end-to-end metric it
// prints each set's median and quartiles and the spread (q3-q1)/median, and
// fails when the second set's median is worse than the first's by more than
// the metric's bound, or a spread exceeds it. -markdown prints the noise
// table README.md carries.
func aaMain(args []string) error {
	fs := flag.NewFlagSet("aa", flag.ContinueOnError)
	markdown := fs.Bool("markdown", false, "print a markdown table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "bench", "out", "aa")
	sets := map[string]map[string]map[string][]float64{} // set -> workload -> metric -> values
	for _, set := range []string{"a", "b"} {
		sets[set] = map[string]map[string][]float64{}
		paths, _ := filepath.Glob(filepath.Join(dir, set, "*.json"))
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			var doc runDoc
			if err := json.Unmarshal(data, &doc); err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			if !doc.Result.Correct {
				return fmt.Errorf("%s: run failed its output checks", p)
			}
			w := sets[set][doc.Workload]
			if w == nil {
				w = map[string][]float64{}
				sets[set][doc.Workload] = w
			}
			for name, m := range doc.Result.Metrics {
				w[name] = append(w[name], m.Value)
			}
		}
		if len(sets[set]) == 0 {
			return fmt.Errorf("no runs in %s: run bench/aa.sh first", filepath.Join(dir, set))
		}
	}

	if *markdown {
		fmt.Println("| workload | metric | unit | runs | median A | q1-q3 A | spread A | median B | spread B | B worse by | bound |")
		fmt.Println("|---|---|---|---:|---:|---|---:|---:|---:|---:|---:|")
	}
	var bad []string
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets["a"][w.Name][m.Name], sets["b"][w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s/%s missing from a set", w.Name, m.Name)
			}
			qa, qb := quartiles(a), quartiles(b)
			worse := (qb.med - qa.med) / qa.med
			if m.Better == "higher" {
				worse = -worse
			}
			if *markdown {
				fmt.Printf("| %s | %s | %s | %d+%d | %.4g | %.4g-%.4g | %.1f %% | %.4g | %.1f %% | %+.1f %% | %.0f %% |\n",
					w.Name, m.Name, m.Unit, len(a), len(b), qa.med, qa.q1, qa.q3, 100*qa.spread, qb.med, 100*qb.spread, 100*worse, 100*m.Bound)
			} else {
				fmt.Printf("%-15s %-15s A %10.4g [%10.4g %10.4g] spread %5.1f%%   B %10.4g [%10.4g %10.4g] spread %5.1f%%   B worse by %+6.1f%% (bound %.0f%%)\n",
					w.Name, m.Name, qa.med, qa.q1, qa.q3, 100*qa.spread, qb.med, qb.q1, qb.q3, 100*qb.spread, 100*worse, 100*m.Bound)
			}
			if worse > m.Bound {
				bad = append(bad, fmt.Sprintf("%s/%s: set B median worse than set A by %.1f%% > bound %.0f%%", w.Name, m.Name, 100*worse, 100*m.Bound))
			}
			if m.Name != "setup_s" && max(qa.spread, qb.spread) > m.Bound {
				bad = append(bad, fmt.Sprintf("%s/%s: spread %.1f%% > bound %.0f%%", w.Name, m.Name, 100*max(qa.spread, qb.spread), 100*m.Bound))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("A/A disagreement:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

type quart struct{ q1, med, q3, spread float64 }

// quartiles follows Python's statistics.quantiles(values, n=4) (the exclusive
// method), which is what the benchmark's driver computes its spreads with.
func quartiles(xs []float64) quart {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	q := quart{q1: at(1), med: median(s), q3: at(3)}
	if q.med != 0 {
		q.spread = (q.q3 - q.q1) / q.med
	}
	return q
}
