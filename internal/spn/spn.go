// Package spn implements a sum-product network over a single table, the
// DeepDB comparator of Section 6.4. Structure learning follows the DeepDB
// recipe at miniature scale: column groups with low mutual correlation are
// split into product nodes (independence), row populations are split into
// sum nodes by 2-means clustering, and leaves hold per-column histograms
// with bucket means so COUNT, SUM and AVG (optionally GROUP BY) queries are
// answered by evaluating probabilities and first moments bottom-up — no data
// access at query time.
package spn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"asqprl/internal/table"
)

// Options configures SPN structure learning.
type Options struct {
	// MinRows is the row threshold below which no further sum-splits
	// happen (default 256).
	MinRows int
	// MaxDepth bounds recursion (default 8).
	MaxDepth int
	// Bins is the histogram resolution for numeric leaves (default 32).
	Bins int
	// CorrThreshold is the |Pearson correlation| above which two columns
	// stay in the same product-node group (default 0.3).
	CorrThreshold float64
	// Seed drives the row-cluster splits.
	Seed int64
}

func (o Options) normalize() Options {
	if o.MinRows <= 0 {
		o.MinRows = 256
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	if o.Bins <= 0 {
		o.Bins = 32
	}
	if o.CorrThreshold <= 0 {
		o.CorrThreshold = 0.3
	}
	return o
}

// predicate restricts one column: a numeric interval and/or a categorical
// membership set.
type predicate struct {
	hasRange bool
	lo, hi   float64
	inSet    map[string]bool // Value.Key() members
	negate   bool            // for <> / NOT IN
}

// predSet maps column index to its (conjunctive) predicate.
type predSet map[int]*predicate

// node is an SPN node over a set of columns (its scope).
type node interface {
	// moment returns P(preds over scope) and E[x_col · 1(preds)] when col is
	// in scope (m is 0 and pOnly=true semantics when col is not in scope).
	moment(col int, preds predSet) (p float64, m float64)
	scope() []int
}

// SPN is a learned sum-product network for one table.
type SPN struct {
	tableName string
	schema    table.Schema
	n         int
	root      node
	// distinct values per column (capped), for GROUP BY enumeration.
	groupDomains map[int][]table.Value
}

// Learn fits an SPN to the rows of t.
func Learn(t *table.Table, opts Options) (*SPN, error) {
	opts = opts.normalize()
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("spn: cannot learn from empty table %s", t.Name)
	}
	s := &SPN{
		tableName:    strings.ToLower(t.Name),
		schema:       t.Schema.Clone(),
		n:            t.NumRows(),
		groupDomains: map[int][]table.Value{},
	}
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	cols := make([]int, len(t.Schema))
	for i := range cols {
		cols[i] = i
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	s.root = learnNode(t, rows, cols, 0, opts, rng)

	// Group-by domains: distinct values for low-cardinality columns.
	for ci := range t.Schema {
		seen := map[string]table.Value{}
		var order []string
		for r := 0; r < t.NumRows(); r++ {
			v := t.Cell(r, ci)
			if v.IsNull() {
				continue
			}
			k := v.Key()
			if _, ok := seen[k]; !ok {
				seen[k] = v
				order = append(order, k)
			}
			if len(seen) > 64 {
				break
			}
		}
		if len(seen) <= 64 {
			sort.Strings(order)
			for _, k := range order {
				s.groupDomains[ci] = append(s.groupDomains[ci], seen[k])
			}
		}
	}
	return s, nil
}

// --- structure learning ---

func learnNode(t *table.Table, rows, cols []int, depth int, opts Options, rng *rand.Rand) node {
	if len(cols) == 1 {
		return newLeaf(t, rows, cols[0], opts)
	}
	if len(rows) < opts.MinRows || depth >= opts.MaxDepth {
		return naiveProduct(t, rows, cols, opts)
	}
	// Try a column (independence) split.
	groups := splitColumns(t, rows, cols, opts)
	if len(groups) > 1 {
		p := &productNode{}
		for _, g := range groups {
			p.children = append(p.children, learnNode(t, rows, g, depth+1, opts, rng))
		}
		return p
	}
	// Row (mixture) split via 2-means.
	left, right := splitRows(t, rows, cols, rng)
	if len(left) == 0 || len(right) == 0 {
		return naiveProduct(t, rows, cols, opts)
	}
	total := float64(len(rows))
	return &sumNode{
		weights: []float64{float64(len(left)) / total, float64(len(right)) / total},
		children: []node{
			learnNode(t, left, cols, depth+1, opts, rng),
			learnNode(t, right, cols, depth+1, opts, rng),
		},
	}
}

// naiveProduct treats every column as independent.
func naiveProduct(t *table.Table, rows, cols []int, opts Options) node {
	p := &productNode{}
	for _, c := range cols {
		p.children = append(p.children, newLeaf(t, rows, c, opts))
	}
	return p
}

// colValue maps a cell to a float for correlation/clustering purposes.
func colValue(v table.Value) float64 {
	switch v.Kind {
	case table.KindInt, table.KindFloat:
		return v.AsFloat()
	case table.KindBool:
		if v.Bool {
			return 1
		}
		return 0
	case table.KindString:
		// Stable cheap hash to a float — enough for correlation screening.
		var h float64
		for i := 0; i < len(v.Str) && i < 8; i++ {
			h = h*31 + float64(v.Str[i])
		}
		return h
	default:
		return 0
	}
}

// splitColumns groups cols into connected components of the |corr| >=
// threshold graph. One component means no split.
func splitColumns(t *table.Table, rows, cols []int, opts Options) [][]int {
	k := len(cols)
	// Sampled column vectors.
	sampleSize := len(rows)
	if sampleSize > 1000 {
		sampleSize = 1000
	}
	vals := make([][]float64, k)
	for i, c := range cols {
		v := make([]float64, sampleSize)
		step := len(rows) / sampleSize
		if step < 1 {
			step = 1
		}
		for j := 0; j < sampleSize; j++ {
			v[j] = colValue(t.Cell(rows[(j*step)%len(rows)], c))
		}
		vals[i] = v
	}
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if math.Abs(pearson(vals[i], vals[j])) >= opts.CorrThreshold {
				parent[find(i)] = find(j)
			}
		}
	}
	comp := map[int][]int{}
	for i, c := range cols {
		root := find(i)
		comp[root] = append(comp[root], c)
	}
	var out [][]int
	roots := make([]int, 0, len(comp))
	for r := range comp {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		out = append(out, comp[r])
	}
	return out
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	cov := sab/n - sa/n*sb/n
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// splitRows partitions rows by a single 2-means pass over normalized column
// values.
func splitRows(t *table.Table, rows, cols []int, rng *rand.Rand) (left, right []int) {
	if len(rows) < 2 {
		return rows, nil
	}
	// Normalization stats.
	means := make([]float64, len(cols))
	stds := make([]float64, len(cols))
	for i, c := range cols {
		var s, ss float64
		for _, r := range rows {
			f := colValue(t.Cell(r, c))
			s += f
			ss += f * f
		}
		n := float64(len(rows))
		means[i] = s / n
		stds[i] = math.Sqrt(math.Max(ss/n-means[i]*means[i], 1e-9))
	}
	feat := func(r int, buf []float64) []float64 {
		for i, c := range cols {
			buf[i] = (colValue(t.Cell(r, c)) - means[i]) / stds[i]
		}
		return buf
	}
	// Initialize centers from two random rows.
	c1 := make([]float64, len(cols))
	c2 := make([]float64, len(cols))
	feat(rows[rng.Intn(len(rows))], c1)
	feat(rows[rng.Intn(len(rows))], c2)
	buf := make([]float64, len(cols))
	assign := make([]bool, len(rows)) // true = right
	for iter := 0; iter < 8; iter++ {
		var s1, s2 []float64
		s1 = make([]float64, len(cols))
		s2 = make([]float64, len(cols))
		n1, n2 := 0, 0
		for ri, r := range rows {
			f := feat(r, buf)
			d1, d2 := 0.0, 0.0
			for i := range f {
				a := f[i] - c1[i]
				b := f[i] - c2[i]
				d1 += a * a
				d2 += b * b
			}
			assign[ri] = d2 < d1
			if assign[ri] {
				for i := range f {
					s2[i] += f[i]
				}
				n2++
			} else {
				for i := range f {
					s1[i] += f[i]
				}
				n1++
			}
		}
		if n1 == 0 || n2 == 0 {
			break
		}
		for i := range c1 {
			c1[i] = s1[i] / float64(n1)
			c2[i] = s2[i] / float64(n2)
		}
	}
	for ri, r := range rows {
		if assign[ri] {
			right = append(right, r)
		} else {
			left = append(left, r)
		}
	}
	return left, right
}
