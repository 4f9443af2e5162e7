package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"asqprl/internal/metrics"
)

// Cell is one table entry. It stays a value until Render prints it, so a
// reader of a Table (a test, a benchmark) reads numbers, and every statistic
// — mean, interval, unit — is computed in one place: the String methods below.
type Cell interface{ String() string }

// Text is a label.
type Text string

func (t Text) String() string { return string(t) }

// Count is a whole number.
type Count int

func (c Count) String() string { return fmt.Sprintf("%d", int(c)) }

// Score is a sample of per-query values, one slice per seed. It prints as the
// mean over seeds of the per-seed means and the 95 % bootstrap interval of
// that mean.
type Score [][]float64

// Mean is the mean over seeds of each seed's mean.
func (s Score) Mean() float64 {
	means := make([]float64, len(s))
	for i, qs := range s {
		means[i] = metrics.Mean(qs)
	}
	return metrics.Mean(means)
}

// Interval is the 95 % percentile-bootstrap interval of Mean. The resampling
// seed is fixed, so a cell over the same sample prints the same interval
// every time.
func (s Score) Interval() (lo, hi float64) {
	return bootstrap(s, rand.New(rand.NewSource(1)))
}

func (s Score) String() string {
	lo, hi := s.Interval()
	return fmt.Sprintf("%.3f [%.3f, %.3f]", s.Mean(), lo, hi)
}

// bootstrap resamples seeds and queries jointly: each of 1000 replicates
// draws len(perSeed) seeds with replacement and, within each drawn seed, as
// many of its queries with replacement, and takes the mean of the seed means.
// The workloads differ by seed, so queries are nested in seeds and both levels
// of sampling error widen the interval.
func bootstrap(perSeed [][]float64, rng *rand.Rand) (lo, hi float64) {
	if len(perSeed) == 0 {
		return 0, 0
	}
	means := make([]float64, 1000)
	for b := range means {
		var total float64
		for range perSeed {
			qs := perSeed[rng.Intn(len(perSeed))]
			var sum float64
			for range qs {
				sum += qs[rng.Intn(len(qs))]
			}
			if len(qs) > 0 {
				total += sum / float64(len(qs))
			}
		}
		means[b] = total / float64(len(perSeed))
	}
	return metrics.Quantile(means, 0.025), metrics.Quantile(means, 0.975)
}

// Tally is a paired comparison: the seeds on which this row's mean test score
// was above, below and equal to the reference row's on the same dataset.
type Tally struct{ Won, Lost, Tied int }

func (t Tally) String() string { return fmt.Sprintf("%d-%d-%d", t.Won, t.Lost, t.Tied) }

// Durations is a sample of wall-clock times; it prints the mean.
type Durations []time.Duration

func (d Durations) String() string {
	var total time.Duration
	for _, x := range d {
		total += x
	}
	return fmtDur(total / time.Duration(max(1, len(d))))
}

// fmtDur renders a duration in the unit that shows it.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1e3)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// Table is an experiment artifact: a titled grid of typed cells and, for a
// table over samples, a note saying what the sample was.
type Table struct {
	Title  string
	Header []string
	Rows   [][]Cell
	Note   string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// Render pretty-prints the table to w: the one place a cell becomes text, for
// the terminal and for EXPERIMENTS.md alike.
func (t *Table) Render(w io.Writer) {
	text := make([][]string, len(t.Rows))
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for ri, r := range t.Rows {
		text[ri] = make([]string, len(r))
		for i, c := range r {
			text[ri][i] = c.String()
			if n := utf8.RuneCountInString(text[ri][i]); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c
			if i < len(widths) {
				parts[i] += strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range text {
		line(r)
	}
	if t.Note != "" {
		fmt.Fprintln(w, t.Note)
	}
}

// column is one statistic of a tabulated row: its header and how to compute
// the cell from the row's samples (one per seed) and the reference row's.
type column struct {
	header string
	cell   func(row, ref []Sample) Cell
}

func scoreColumn(header string, of func(Sample) []float64) column {
	return column{header, func(row, _ []Sample) Cell {
		s := make(Score, len(row))
		for i := range row {
			s[i] = of(row[i])
		}
		return s
	}}
}

func durationColumn(header string, of func(Sample) time.Duration) column {
	return column{header, func(row, _ []Sample) Cell {
		d := make(Durations, len(row))
		for i := range row {
			d[i] = of(row[i])
		}
		return d
	}}
}

var (
	colTrain      = scoreColumn("TrainScore", func(s Sample) []float64 { return s.Train })
	colTest       = scoreColumn("TestScore", func(s Sample) []float64 { return s.Test })
	colDiversity  = scoreColumn("PairwiseJaccardDiversity", func(s Sample) []float64 { return s.Diversity })
	colSetup      = durationColumn("Setup", func(s Sample) time.Duration { return s.Setup })
	colPreprocess = durationColumn("QueryExecTime", func(s Sample) time.Duration { return s.Preprocess })
	colQueryAvg   = durationColumn("QueryAvg", func(s Sample) time.Duration { return s.QueryAvg })
	// Precision and recall are one number per seed.
	colPrecision = scoreColumn("Precision", func(s Sample) []float64 { p, _ := estimatorQuality(s); return []float64{p} })
	colRecall    = scoreColumn("Recall", func(s Sample) []float64 { _, r := estimatorQuality(s); return []float64{r} })
	// colTally pairs the row with the reference seed by seed: evaluate gives
	// both the same dataset value per seed, in the same order.
	colTally = column{"W-L-T", func(row, ref []Sample) Cell {
		if len(ref) != len(row) || row[0].Method == ref[0].Method {
			return Text("-")
		}
		var t Tally
		for i := range row {
			switch a, b := metrics.Mean(row[i].Test), metrics.Mean(ref[i].Test); {
			case a > b:
				t.Won++
			case a < b:
				t.Lost++
			default:
				t.Tied++
			}
		}
		return t
	}}
)

// estimatorQuality is the precision and recall of "predicted term >= 0.5"
// against "executed term >= 0.5" over the sample's training and test
// statements.
func estimatorQuality(s Sample) (precision, recall float64) {
	terms := append(slices.Clone(s.Train), s.Test...)
	predicted, actual := make([]bool, len(terms)), make([]bool, len(terms))
	for i, t := range terms {
		predicted[i], actual[i] = s.Predicted[i] >= 0.5, t >= 0.5
	}
	return metrics.PrecisionRecall(predicted, actual)
}

// fallbackColumn is the test score of the full system that answers a
// statement predicted below threshold from the database, exactly (term 1).
func fallbackColumn(threshold float64) column {
	return scoreColumn(fmt.Sprintf("Fallback%.1f", threshold), func(s Sample) []float64 {
		terms := slices.Clone(s.Test)
		for i, pred := range s.Predicted[len(s.Train):] {
			if pred < threshold {
				terms[i] = 1
			}
		}
		return terms
	})
}

// tabulate lays samples out one row per (point, method), in the order
// evaluate produced them, with ref naming the method each row is paired
// against. pointHeader is empty for a table that is not a sweep.
func tabulate(title, pointHeader, methodHeader, ref string, samples []Sample, cols ...column) *Table {
	type key struct{ point, method string }
	var order []key
	rows := map[key][]Sample{}
	for _, s := range samples {
		k := key{s.Point, s.Method}
		if _, ok := rows[k]; !ok {
			order = append(order, k)
		}
		rows[k] = append(rows[k], s)
	}

	t := &Table{Title: title}
	if pointHeader != "" {
		t.Header = append(t.Header, pointHeader)
	}
	t.Header = append(t.Header, methodHeader)
	for _, c := range cols {
		t.Header = append(t.Header, c.header)
	}
	for _, k := range order {
		var cells []Cell
		if pointHeader != "" {
			cells = append(cells, Text(k.point))
		}
		cells = append(cells, Text(k.method))
		for _, c := range cols {
			cells = append(cells, c.cell(rows[k], rows[key{k.point, ref}]))
		}
		t.AddRow(cells...)
	}
	if len(order) > 0 {
		first := rows[order[0]]
		statements := 0
		for _, s := range first {
			statements += len(s.Test)
		}
		t.Note = fmt.Sprintf("n = %d paired seeds, %d held-out test statements; scores are mean [95%% bootstrap interval over seeds and statements]; W-L-T is seeds won-lost-tied on test score against %q; times are means.",
			len(first), statements, ref)
	}
	return t
}

// WriteMarkdown replaces what stands between "<!-- id:begin -->" and
// "<!-- id:end -->" in the file at path with the rendered tables. Each marker
// must occur exactly once, in that order; nothing outside them changes.
func WriteMarkdown(path, id string, rendered []byte) error {
	if _, err := ByID(id); err != nil {
		return err
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	begin, end := []byte("<!-- "+id+":begin -->"), []byte("<!-- "+id+":end -->")
	if b, e := bytes.Count(doc, begin), bytes.Count(doc, end); b != 1 || e != 1 {
		return fmt.Errorf("experiments: %s: want one %s and one %s, found %d and %d", path, begin, end, b, e)
	}
	from, to := bytes.Index(doc, begin)+len(begin), bytes.Index(doc, end)
	if to < from {
		return fmt.Errorf("experiments: %s: %s stands before %s", path, end, begin)
	}
	var out bytes.Buffer
	out.Write(doc[:from])
	out.WriteString("\n```\n")
	out.Write(rendered)
	out.WriteString("```\n")
	out.Write(doc[to:])
	return os.WriteFile(path, out.Bytes(), 0o644)
}
