// Package workload defines query workloads — weighted sets of SQL queries —
// and utilities to build, normalize, split and cluster them. Synthetic
// workload generators for the IMDB-, MAS- and FLIGHTS-shaped datasets live in
// generate.go; the statistics-driven generator used when no workload is
// provided (Section 4.5 of the paper) lives in internal/core.
package workload

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"asqprl/internal/sqlparse"
)

// Query is one workload entry: a parsed statement with a weight.
type Query struct {
	SQL    string
	Stmt   *sqlparse.Select
	Weight float64
}

// Workload is a weighted set of queries. Weights are kept normalized to sum
// to 1 by the constructors; use Normalize after manual edits.
type Workload []Query

// New parses the given SQL strings into a uniformly-weighted workload.
func New(sqls ...string) (Workload, error) {
	if len(sqls) == 0 {
		return nil, fmt.Errorf("workload: empty workload")
	}
	w := make(Workload, 0, len(sqls))
	for _, s := range sqls {
		stmt, err := sqlparse.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("workload: query %q: %w", s, err)
		}
		w = append(w, Query{SQL: s, Stmt: stmt, Weight: 1})
	}
	w.Normalize()
	return w, nil
}

// ReadFile reads a workload file: one statement per line, uniformly weighted;
// blank lines and lines starting with "--" are skipped. A statement that does
// not parse is reported with the file and line it stands on.
func ReadFile(path string) (Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var w Workload
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		sql := strings.TrimSpace(sc.Text())
		if sql == "" || strings.HasPrefix(sql, "--") {
			continue
		}
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("workload: %s:%d: %w", path, line, err)
		}
		w = append(w, Query{SQL: sql, Stmt: stmt, Weight: 1})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	if len(w) == 0 {
		return nil, fmt.Errorf("workload: %s holds no statements", path)
	}
	w.Normalize()
	return w, nil
}

// MustNew is New for tests and literal workloads; it panics on error.
func MustNew(sqls ...string) Workload {
	w, err := New(sqls...)
	if err != nil {
		panic(err)
	}
	return w
}

// FromStatements wraps already-parsed statements with uniform weights.
func FromStatements(stmts []*sqlparse.Select) Workload {
	w := make(Workload, 0, len(stmts))
	for _, s := range stmts {
		w = append(w, Query{SQL: s.String(), Stmt: s, Weight: 1})
	}
	w.Normalize()
	return w
}

// Normalize rescales weights to sum to 1 (uniform if all are zero).
func (w Workload) Normalize() {
	var total float64
	for _, q := range w {
		total += q.Weight
	}
	if total <= 0 {
		for i := range w {
			w[i].Weight = 1
		}
		total = float64(len(w))
	}
	for i := range w {
		w[i].Weight /= total
	}
}

// SQLs returns the SQL text of every query.
func (w Workload) SQLs() []string {
	out := make([]string, len(w))
	for i, q := range w {
		out[i] = q.SQL
	}
	return out
}

// Statements returns the parsed statements of every query.
func (w Workload) Statements() []*sqlparse.Select {
	out := make([]*sqlparse.Select, len(w))
	for i, q := range w {
		out[i] = q.Stmt
	}
	return out
}

// Split partitions the workload into train and test sets, shuffling with
// rng. trainFrac is clamped so both sides are non-empty when len(w) >= 2.
func (w Workload) Split(trainFrac float64, rng *rand.Rand) (train, test Workload) {
	n := len(w)
	if n == 0 {
		return nil, nil
	}
	idx := rng.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain >= n && n >= 2 {
		nTrain = n - 1
	}
	for i, j := range idx {
		if i < nTrain {
			train = append(train, w[j])
		} else {
			test = append(test, w[j])
		}
	}
	train.Normalize()
	test.Normalize()
	return train, test
}

// Merge combines workloads, renormalizing weights.
func Merge(ws ...Workload) Workload {
	var out Workload
	for _, w := range ws {
		out = append(out, w...)
	}
	out.Normalize()
	return out
}

// Subset returns the queries at the given indices as a normalized workload.
func (w Workload) Subset(indices []int) Workload {
	out := make(Workload, 0, len(indices))
	for _, i := range indices {
		if i >= 0 && i < len(w) {
			out = append(out, w[i])
		}
	}
	out.Normalize()
	return out
}
