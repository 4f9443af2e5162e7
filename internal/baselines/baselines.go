// Package baselines implements the comparison methods of Section 6.1:
// random sampling (RAN), brute force (BRT), greedy (GRE), top-queried tuples
// (TOP), LRU caching (CACH), query result diversification (QRD), skyline
// (SKY), VerdictDB-style variational sampling (VERD), and QuickR-style
// stratified sampling (QUIK). The generative VAE baseline lives in
// internal/generative because it produces synthetic tuples rather than a
// subset.
//
// Every baseline implements Builder: given the database, the training
// workload and the memory budget k, produce an approximation subset. Time
// budgets stand in for the paper's 48-hour cap — BRT and GRE return their
// best-so-far when the budget expires.
package baselines

import (
	"math/rand"
	"time"

	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// Options carries shared baseline parameters.
type Options struct {
	// F is the frame size used by score-driven baselines (GRE, BRT).
	F int
	// Seed drives random choices.
	Seed int64
	// TimeBudget caps BRT and GRE; zero means a default of 2 seconds
	// (standing in for the paper's 48-hour limit).
	TimeBudget time.Duration
	// PoolSize caps the row pool examined by pool-based baselines
	// (QRD, SKY); zero means 20000.
	PoolSize int
}

func (o Options) normalize() Options {
	if o.F <= 0 {
		o.F = 50
	}
	if o.TimeBudget <= 0 {
		o.TimeBudget = 2 * time.Second
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 20000
	}
	return o
}

// Builder constructs an approximation subset of at most k tuples.
type Builder interface {
	// Name returns the short name used in the paper's tables (RAN, GRE, ...).
	Name() string
	// Build selects at most k tuples of db as an approximation set.
	Build(db *table.Database, train workload.Workload, k int, opts Options) (*table.Subset, error)
}

// All returns every subset-producing baseline in the paper's Figure 2 order.
func All() []Builder {
	return []Builder{
		Caching{}, Random{}, QuickR{}, Verdict{}, Skyline{},
		BruteForce{}, QRD{}, TopQueried{}, GreedyExec{}, Greedy{},
	}
}

// tableSpans indexes the database rows as one flat range per table, used by
// uniform samplers.
type tableSpan struct {
	name  string
	start int
	rows  int
}

func spansOf(db *table.Database) ([]tableSpan, int) {
	var spans []tableSpan
	total := 0
	for _, t := range db.Tables() {
		spans = append(spans, tableSpan{name: t.Name, start: total, rows: t.NumRows()})
		total += t.NumRows()
	}
	return spans, total
}

func globalToRowID(spans []tableSpan, g int) table.RowID {
	for i := len(spans) - 1; i >= 0; i-- {
		if g >= spans[i].start {
			return table.RowID{Table: spans[i].name, Row: g - spans[i].start}
		}
	}
	return table.RowID{}
}

// Random implements RAN: k rows drawn uniformly from the whole database.
type Random struct{}

// Name implements Builder.
func (Random) Name() string { return "RAN" }

// Build implements Builder.
func (Random) Build(db *table.Database, _ workload.Workload, k int, opts Options) (*table.Subset, error) {
	opts = opts.normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	spans, total := spansOf(db)
	s := table.NewSubset()
	if total == 0 || k <= 0 {
		return s, nil
	}
	if k > total {
		k = total
	}
	picked := map[int]bool{}
	for len(picked) < k {
		picked[rng.Intn(total)] = true
	}
	for g := range picked {
		s.Add(globalToRowID(spans, g))
	}
	return s, nil
}
