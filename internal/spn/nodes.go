package spn

import (
	"math"
	"sort"

	"asqprl/internal/table"
)

// --- node implementations ---

// productNode multiplies independent children with disjoint scopes.
type productNode struct {
	children []node
}

func (p *productNode) scope() []int {
	var out []int
	for _, c := range p.children {
		out = append(out, c.scope()...)
	}
	sort.Ints(out)
	return out
}

func (p *productNode) moment(col int, preds predSet) (float64, float64) {
	prob := 1.0
	m := -1.0 // -1 marks "column not seen yet"
	for _, c := range p.children {
		inScope := false
		for _, sc := range c.scope() {
			if sc == col {
				inScope = true
				break
			}
		}
		cp, cm := c.moment(col, preds)
		prob *= cp
		if inScope {
			m = cm
		}
	}
	if m < 0 {
		// Column not in scope: the moment is undefined here; callers only
		// read it at nodes whose scope contains col.
		return prob, 0
	}
	// cm already includes the child's own predicate mass; scale by the
	// other children's probabilities.
	if m != 0 {
		// moment of child * Π other children's p. prob currently includes
		// the owning child's p as well, so divide it out.
		ownerP, _ := ownerProb(p, col, preds)
		if ownerP > 0 {
			m = m * prob / ownerP
		} else {
			m = 0
		}
	}
	return prob, m
}

// ownerProb returns the predicate probability of the child whose scope
// contains col.
func ownerProb(p *productNode, col int, preds predSet) (float64, bool) {
	for _, c := range p.children {
		for _, sc := range c.scope() {
			if sc == col {
				cp, _ := c.moment(col, preds)
				return cp, true
			}
		}
	}
	return 1, false
}

// sumNode mixes children over the same scope.
type sumNode struct {
	weights  []float64
	children []node
}

func (s *sumNode) scope() []int { return s.children[0].scope() }

func (s *sumNode) moment(col int, preds predSet) (float64, float64) {
	var p, m float64
	for i, c := range s.children {
		cp, cm := c.moment(col, preds)
		p += s.weights[i] * cp
		m += s.weights[i] * cm
	}
	return p, m
}

// leaf models a single column.
type leaf struct {
	col int
	// numeric histogram
	numeric  bool
	binLo    []float64
	binHi    []float64
	binMass  []float64 // fraction of rows
	binMean  []float64
	nullFrac float64
	// categorical masses
	catMass map[string]float64 // Value.Key() -> fraction
}

func (l *leaf) scope() []int { return []int{l.col} }

func newLeaf(t *table.Table, rows []int, col int, opts Options) *leaf {
	l := &leaf{col: col}
	kind := t.Schema[col].Kind
	n := float64(len(rows))
	if n == 0 {
		n = 1
	}
	if kind == table.KindInt || kind == table.KindFloat {
		l.numeric = true
		lo, hi := math.Inf(1), math.Inf(-1)
		nulls := 0
		for _, r := range rows {
			v := t.Cell(r, col)
			if v.IsNull() {
				nulls++
				continue
			}
			f := v.AsFloat()
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		l.nullFrac = float64(nulls) / n
		if math.IsInf(lo, 1) { // all null
			return l
		}
		bins := opts.Bins
		if hi == lo {
			bins = 1
		}
		width := (hi - lo) / float64(bins)
		if width == 0 {
			width = 1
		}
		l.binLo = make([]float64, bins)
		l.binHi = make([]float64, bins)
		l.binMass = make([]float64, bins)
		l.binMean = make([]float64, bins)
		sums := make([]float64, bins)
		counts := make([]float64, bins)
		for b := 0; b < bins; b++ {
			l.binLo[b] = lo + float64(b)*width
			l.binHi[b] = lo + float64(b+1)*width
		}
		l.binHi[bins-1] = hi
		for _, r := range rows {
			v := t.Cell(r, col)
			if v.IsNull() {
				continue
			}
			f := v.AsFloat()
			b := int((f - lo) / width)
			if b >= bins {
				b = bins - 1
			}
			if b < 0 {
				b = 0
			}
			counts[b]++
			sums[b] += f
		}
		for b := 0; b < bins; b++ {
			l.binMass[b] = counts[b] / n
			if counts[b] > 0 {
				l.binMean[b] = sums[b] / counts[b]
			} else {
				l.binMean[b] = (l.binLo[b] + l.binHi[b]) / 2
			}
		}
		return l
	}
	// Categorical (string/bool) leaf.
	l.catMass = map[string]float64{}
	for _, r := range rows {
		v := t.Cell(r, col)
		if v.IsNull() {
			l.nullFrac += 1 / n
			continue
		}
		l.catMass[v.Key()] += 1 / n
	}
	return l
}

// moment computes P(pred) and E[x · 1(pred)] for this column's predicate
// (if any; no predicate means P=1, E = E[x]).
func (l *leaf) moment(col int, preds predSet) (float64, float64) {
	pred := preds[l.col]
	wantMoment := col == l.col

	if l.numeric {
		var p, m float64
		for b := range l.binMass {
			frac := l.overlapFraction(b, pred)
			p += l.binMass[b] * frac
			m += l.binMass[b] * frac * l.binMean[b]
		}
		if pred == nil {
			p = 1 - l.nullFrac
		}
		if pred != nil && pred.negate {
			p = (1 - l.nullFrac) - p
			fullM := 0.0
			for b := range l.binMass {
				fullM += l.binMass[b] * l.binMean[b]
			}
			m = fullM - m
		}
		if !wantMoment {
			m = 0
		}
		return clamp01(p), m
	}
	// Categorical.
	var p float64
	if pred == nil {
		p = 1 - l.nullFrac
	} else if pred.inSet != nil {
		for key := range pred.inSet {
			p += l.catMass[key]
		}
		if pred.negate {
			p = (1 - l.nullFrac) - p
		}
	}
	if !wantMoment {
		return clamp01(p), 0
	}
	// Moments over categorical columns are meaningless; return 0.
	return clamp01(p), 0
}

// overlapFraction returns the fraction of bin b's mass satisfying pred's
// numeric range (uniform-within-bin assumption).
func (l *leaf) overlapFraction(b int, pred *predicate) float64 {
	if pred == nil {
		return 1
	}
	if pred.inSet != nil {
		// Numeric IN-set: count bins containing the values; approximate by
		// point mass at bucket mean.
		for key := range pred.inSet {
			_ = key
		}
		// Treated by equality ranges at extraction time; fall through.
	}
	if !pred.hasRange {
		return 1
	}
	lo, hi := l.binLo[b], l.binHi[b]
	a := math.Max(lo, pred.lo)
	z := math.Min(hi, pred.hi)
	if z < a {
		return 0
	}
	width := hi - lo
	if width <= 0 {
		return 1
	}
	f := (z - a) / width
	if f > 1 {
		f = 1
	}
	return f
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
