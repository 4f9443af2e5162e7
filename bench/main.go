// Command bench is the repository's benchmark: three serving workloads
// driven over loopback HTTP against the real asqp-serve binary, one offline
// training workload, and a traced run that times each layer's public
// functions from outside. See README.md.
//
//	go run -C bench . -workload explore_hit -seed 1            # end-to-end metrics
//	go run -C bench . -workload explore_hit -seed 1 -trace 1   # per-layer metrics
//	go run -C bench . report                                   # traces -> LAYERS.md
//	go run -C bench . aa                                       # A/A comparison of out/aa
//	go run -C bench . spec > BENCHMARK.json                    # the contract, from spec.go
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the exit status is non-zero when any output
// check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envInfo records where a run was measured.
type envInfo struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

// runDoc is the JSON document a run leaves in bench/out.
type runDoc struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Quick    bool           `json:"quick"`
	Env      envInfo        `json:"env"`
	Result   resultLine     `json:"result"`
	Failures []string       `json:"failures,omitempty"`
	Detail   map[string]any `json:"detail"`
}

// run carries one invocation's settings and collects its outcome.
type run struct {
	spec    workloadSpec
	seed    int64
	seconds int
	trace   bool
	quick   bool
	root    string // repository root
	outDir  string // bench/out
	runDir  string // bench/out/run-<workload>-<seed>: WAL dirs and scratch
	logPath string // server child log

	setups    []float64 // seconds each set-up of the run took
	metrics   map[string]float64
	detail    map[string]any
	attempted int
	failed    int
	failures  []string
	spans     []span
	traces    int
}

// fail records a failed output check. The first few messages are printed and
// kept in the run document.
func (r *run) fail(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	defer reapAll()
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "report":
			return subcommand(reportMain(os.Args[2:]))
		case "aa":
			return subcommand(aaMain(os.Args[2:]))
		case "spec":
			return subcommand(specMain())
		}
	}
	name := flag.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the request streams")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics instead of the end-to-end ones")
	quick := flag.Bool("quick", false, "small corpus (scale 0.2) for a fast look; not comparable with gate runs")
	flag.Parse()

	spec, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q (want one of: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be 1..60 and -trace 0 or 1")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	r := &run{
		spec: spec, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick,
		root: root, outDir: filepath.Join(root, "bench", "out"),
		metrics: map[string]float64{}, detail: map[string]any{},
	}
	r.runDir = filepath.Join(r.outDir, fmt.Sprintf("run-%s-%d", spec.Name, *seed))
	r.logPath = filepath.Join(r.outDir, spec.Name+".server.log")
	if err := os.RemoveAll(r.runDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(r.runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer func() {
		reapAll() // no child may still be writing its WAL when the directory goes
		os.RemoveAll(r.runDir)
	}()
	os.Remove(r.logPath)

	ctx := context.Background()
	if spec.Serving {
		err = r.serving(ctx)
	} else {
		err = r.trainPipeline(ctx)
	}
	if err != nil {
		// A run that could not be completed prints no result line.
		fmt.Fprintln(os.Stderr, "bench: run aborted:", err)
		if tail := logTail(r.logPath, 30); tail != "" {
			fmt.Fprintf(os.Stderr, "--- tail of %s ---\n%s\n", r.logPath, tail)
		}
		return 1
	}
	return r.finish()
}

func subcommand(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// finish prints every metric by name with its unit, writes the run document
// and the trace, and prints the result line last.
func (r *run) finish() int {
	res := resultLine{
		Correct:   len(r.failures) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if r.trace {
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{r.metrics[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{r.metrics[m.Name], m.Unit}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED CHECK:", f)
	}
	if !res.Correct {
		if tail := logTail(r.logPath, 30); tail != "" {
			fmt.Fprintf(os.Stderr, "--- tail of %s ---\n%s\n", r.logPath, tail)
		}
	}

	base := filepath.Join(r.outDir, fmt.Sprintf("%s-%d", r.spec.Name, r.seed))
	doc := runDoc{
		Workload: r.spec.Name, Seed: r.seed, Seconds: r.seconds, Trace: r.trace, Quick: r.quick,
		Env: environment(r.root), Result: res, Failures: r.failures, Detail: r.detail,
	}
	docPath := base + ".json"
	if r.trace {
		docPath = base + ".layers.json"
		if err := writeSpans(base+".trace.jsonl", r.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(docPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// repoRoot finds the repository root from the working directory: the bench
// runs either from the root (the driver's command) or from bench/ (go run -C
// bench).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "asqp-serve", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/asqp-serve at or above %s: run from the repository root or from bench/", wd)
}

// ensureServerBin builds cmd/asqp-serve into bench/out/bin. The go tool
// decides whether anything needs rebuilding.
func ensureServerBin(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "asqp-serve")
	cmd := exec.Command("go", "build", "-trimpath", "-buildvcs=false", "-o", bin, "./cmd/asqp-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/asqp-serve: %v\n%s", err, out)
	}
	return bin, nil
}

func environment(root string) envInfo {
	e := envInfo{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	return e
}

// warmup is how long the connections run before the measured phase.
func warmup(seconds int) time.Duration {
	return max(time.Second, time.Duration(seconds)*time.Second/5)
}
