package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// GenOptions configures the statistics-driven workload generator used when no
// query workload is provided (Section 4.5).
type GenOptions struct {
	// N is the number of queries to generate.
	N int
	// MaxPredicates bounds the WHERE conjuncts per query (default 2).
	MaxPredicates int
	// JoinProb is the probability of generating a two-table join when a
	// joinable pair exists (default 0.35).
	JoinProb float64
	// AggregateProb is the probability of wrapping a query in GROUP BY +
	// aggregate (default 0; the ASQP pipeline rewrites them away anyway).
	AggregateProb float64
	// Seed drives generation.
	Seed int64
}

func (o GenOptions) normalize() GenOptions {
	if o.N <= 0 {
		o.N = 20
	}
	if o.MaxPredicates <= 0 {
		o.MaxPredicates = 2
	}
	if o.JoinProb < 0 {
		o.JoinProb = 0
	}
	if o.JoinProb == 0 {
		o.JoinProb = 0.35
	}
	return o
}

// columnStats summarizes one column for generation.
type columnStats struct {
	name    string
	kind    table.Kind
	numMin  float64
	numMax  float64
	samples []table.Value // with repetition → popular values drawn more often
	card    int           // distinct count (capped)
}

// tableStats summarizes one table.
type tableStats struct {
	name string
	cols []columnStats
}

// fkEdge is a detected joinable pair.
type fkEdge struct {
	fromTable, fromCol string
	toTable, toCol     string
}

// GenerateWorkload synthesizes an SPJ workload from database statistics:
// numeric ranges from observed min/max, categorical equality from sampled
// values (with repetition, so popular values dominate), and joins over
// detected foreign keys ("x_id" → table "x"/"xs" with column "id").
func GenerateWorkload(db *table.Database, opts GenOptions) (workload.Workload, error) {
	opts = opts.normalize()
	rng := rand.New(rand.NewSource(opts.Seed))

	var stats []tableStats
	for _, t := range db.Tables() {
		if t.NumRows() == 0 {
			continue
		}
		stats = append(stats, collectStats(t, rng))
	}
	if len(stats) == 0 {
		return nil, fmt.Errorf("core: cannot generate workload over an empty database")
	}
	edges := detectForeignKeys(db)

	var sqls []string
	seen := map[string]bool{}
	for attempts := 0; len(sqls) < opts.N && attempts < opts.N*20; attempts++ {
		sql := generateOne(stats, edges, opts, rng)
		if sql == "" || seen[sql] {
			continue
		}
		if _, err := sqlparse.Parse(sql); err != nil {
			continue
		}
		seen[sql] = true
		sqls = append(sqls, sql)
	}
	if len(sqls) == 0 {
		return nil, fmt.Errorf("core: workload generation produced no queries")
	}
	return workload.New(sqls...)
}

func collectStats(t *table.Table, rng *rand.Rand) tableStats {
	const maxSamples = 64
	ts := tableStats{name: t.Name}
	for ci, col := range t.Schema {
		cs := columnStats{name: col.Name, kind: col.Kind}
		distinct := map[string]bool{}
		first := true
		for r := 0; r < t.NumRows(); r++ {
			v := t.Cell(r, ci)
			if v.IsNull() {
				continue
			}
			if v.IsNumeric() {
				f := v.AsFloat()
				if first || f < cs.numMin {
					cs.numMin = f
				}
				if first || f > cs.numMax {
					cs.numMax = f
				}
				first = false
			}
			if len(distinct) < 256 {
				distinct[v.Key()] = true
			}
		}
		cs.card = len(distinct)
		// Sample values with repetition (popularity-weighted).
		n := t.NumRows()
		for s := 0; s < maxSamples && s < n; s++ {
			v := t.Cell(rng.Intn(n), ci)
			if !v.IsNull() {
				cs.samples = append(cs.samples, v)
			}
		}
		ts.cols = append(ts.cols, cs)
	}
	return ts
}

// detectForeignKeys finds "x_id"-style join edges by name convention.
func detectForeignKeys(db *table.Database) []fkEdge {
	var edges []fkEdge
	names := db.TableNames()
	find := func(base string) string {
		for _, n := range names {
			if n == base || n == base+"s" || n+"s" == base {
				return n
			}
		}
		return ""
	}
	for _, t := range db.Tables() {
		for _, col := range t.Schema {
			lower := strings.ToLower(col.Name)
			if !strings.HasSuffix(lower, "_id") {
				continue
			}
			base := strings.TrimSuffix(lower, "_id")
			target := find(base)
			if target == "" || strings.EqualFold(target, t.Name) {
				continue
			}
			tt := db.Table(target)
			if tt == nil || tt.ColumnIndex("id") < 0 {
				continue
			}
			edges = append(edges, fkEdge{
				fromTable: strings.ToLower(t.Name), fromCol: col.Name,
				toTable: target, toCol: "id",
			})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].fromTable != edges[b].fromTable {
			return edges[a].fromTable < edges[b].fromTable
		}
		return edges[a].fromCol < edges[b].fromCol
	})
	return edges
}

func generateOne(stats []tableStats, edges []fkEdge, opts GenOptions, rng *rand.Rand) string {
	ts := stats[rng.Intn(len(stats))]
	var b strings.Builder

	join := ""
	var joinStats *tableStats
	if len(edges) > 0 && rng.Float64() < opts.JoinProb {
		// Pick an edge involving ts if any.
		var candidates []fkEdge
		for _, e := range edges {
			if strings.EqualFold(e.fromTable, ts.name) {
				candidates = append(candidates, e)
			}
		}
		if len(candidates) > 0 {
			e := candidates[rng.Intn(len(candidates))]
			join = fmt.Sprintf(" JOIN %s ON %s.%s = %s.%s", e.toTable, e.fromTable, e.fromCol, e.toTable, e.toCol)
			for i := range stats {
				if strings.EqualFold(stats[i].name, e.toTable) {
					joinStats = &stats[i]
				}
			}
		}
	}

	var preds []string
	nPreds := 1 + rng.Intn(opts.MaxPredicates)
	for p := 0; p < nPreds; p++ {
		src := ts
		if joinStats != nil && rng.Float64() < 0.5 {
			src = *joinStats
		}
		pred := generatePredicate(src, rng, join != "")
		if pred != "" {
			preds = append(preds, pred)
		}
	}
	if len(preds) == 0 {
		return ""
	}

	agg := rng.Float64() < opts.AggregateProb
	if agg {
		gcol := pickCategorical(ts, rng)
		ncol := pickNumeric(ts, rng)
		if gcol == "" || ncol == "" {
			agg = false
		} else {
			fn := []string{"COUNT(*)", "SUM(%s)", "AVG(%s)"}[rng.Intn(3)]
			expr := fn
			if strings.Contains(fn, "%s") {
				expr = fmt.Sprintf(fn, qualify(ts.name, ncol, join != ""))
			}
			fmt.Fprintf(&b, "SELECT %s, %s FROM %s%s WHERE %s GROUP BY %s",
				qualify(ts.name, gcol, join != ""), expr, ts.name, join,
				strings.Join(preds, " AND "), qualify(ts.name, gcol, join != ""))
			return b.String()
		}
	}
	fmt.Fprintf(&b, "SELECT * FROM %s%s WHERE %s", ts.name, join, strings.Join(preds, " AND "))
	return b.String()
}

func qualify(tableName, col string, joined bool) string {
	if joined {
		return tableName + "." + col
	}
	return col
}

func pickCategorical(ts tableStats, rng *rand.Rand) string {
	var opts []string
	for _, c := range ts.cols {
		if c.kind == table.KindString && c.card > 1 && c.card <= 64 {
			opts = append(opts, c.name)
		}
	}
	if len(opts) == 0 {
		return ""
	}
	return opts[rng.Intn(len(opts))]
}

func pickNumeric(ts tableStats, rng *rand.Rand) string {
	var opts []string
	for _, c := range ts.cols {
		if (c.kind == table.KindInt || c.kind == table.KindFloat) && !strings.HasSuffix(strings.ToLower(c.name), "id") {
			opts = append(opts, c.name)
		}
	}
	if len(opts) == 0 {
		return ""
	}
	return opts[rng.Intn(len(opts))]
}

func generatePredicate(ts tableStats, rng *rand.Rand, joined bool) string {
	if len(ts.cols) == 0 {
		return ""
	}
	for attempt := 0; attempt < 8; attempt++ {
		c := ts.cols[rng.Intn(len(ts.cols))]
		if len(c.samples) == 0 {
			continue
		}
		col := qualify(ts.name, c.name, joined)
		switch c.kind {
		case table.KindInt, table.KindFloat:
			if strings.HasSuffix(strings.ToLower(c.name), "id") {
				continue // ids make degenerate predicates
			}
			a := c.samples[rng.Intn(len(c.samples))]
			switch rng.Intn(3) {
			case 0:
				return fmt.Sprintf("%s > %s", col, a.String())
			case 1:
				return fmt.Sprintf("%s < %s", col, a.String())
			default:
				bv := c.samples[rng.Intn(len(c.samples))]
				lo, hi := a, bv
				if lo.AsFloat() > hi.AsFloat() {
					lo, hi = hi, lo
				}
				return fmt.Sprintf("%s BETWEEN %s AND %s", col, lo.String(), hi.String())
			}
		case table.KindString:
			if c.card > 200 {
				continue // near-unique text columns make point lookups
			}
			v := c.samples[rng.Intn(len(c.samples))]
			if rng.Intn(3) == 0 && c.card > 3 {
				v2 := c.samples[rng.Intn(len(c.samples))]
				return fmt.Sprintf("%s IN ('%s', '%s')", col, escape(v.Str), escape(v2.Str))
			}
			return fmt.Sprintf("%s = '%s'", col, escape(v.Str))
		case table.KindBool:
			return fmt.Sprintf("%s = %s", col, strings.ToUpper(c.samples[rng.Intn(len(c.samples))].String()))
		}
	}
	return ""
}

func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }
