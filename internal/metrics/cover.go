package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"asqprl/internal/sample"
	"asqprl/internal/table"
)

// Term is the one place Equation 1's per-query term is computed:
//
//	min(1, covered·(total/tracked) / min(F, total))
//
// covered counts the query's result tuples present in the approximation set,
// out of the tracked ones it was counted over; total is |q(𝒯)|. When every
// result tuple is tracked (tracked == total) covered is |q(𝒮)| itself;
// otherwise the tracked tuples are a uniform sample of the result and the
// count is scaled up to an estimate of |q(𝒮)|. A query with nothing to cover
// is trivially answered; frameSize <= 0 disables the frame cap.
func Term(covered, tracked, total, frameSize int) float64 {
	need := total
	if frameSize > 0 && frameSize < need {
		need = frameSize
	}
	if need <= 0 || tracked <= 0 {
		return 1
	}
	est := float64(covered)
	if tracked != total {
		est = est * float64(total) / float64(tracked)
	}
	return math.Min(1, est/float64(need))
}

// Tuples normalises an execution's lineage into result tuples: each tuple is
// the sorted distinct base rows that must all be in the approximation set for
// the result row to appear, and a tuple that repeats is kept once, where it
// first appeared.
func Tuples(lineage [][]table.RowID) [][]table.RowID {
	seen := make(map[string]bool, len(lineage))
	var out [][]table.RowID
	for _, rows := range lineage {
		tuple := Tuple(rows)
		key := TupleKey(tuple)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, tuple)
	}
	return out
}

// Tuple returns the sorted distinct rows of rows: one result tuple, or the
// union of several, in the form Tuples produces. rows is left as it was.
func Tuple(rows []table.RowID) []table.RowID {
	cp := append([]table.RowID(nil), rows...)
	sort.Slice(cp, func(a, b int) bool {
		if cp[a].Table != cp[b].Table {
			return cp[a].Table < cp[b].Table
		}
		return cp[a].Row < cp[b].Row
	})
	out := cp[:0]
	for i, r := range cp {
		if i > 0 && r == cp[i-1] {
			continue
		}
		out = append(out, r)
	}
	return out
}

// TupleKey is a canonical map key for a normalised tuple.
func TupleKey(tuple []table.RowID) string {
	var b strings.Builder
	for _, r := range tuple {
		b.WriteString(r.Table)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(r.Row))
		b.WriteByte('|')
	}
	return b.String()
}

// SampleTuples caps a query's tracked tuples at max by a uniform draw without
// replacement, result order kept — uniform because Term scales the covered
// count by total/tracked, which is an estimate of |q(𝒮)| only for a uniform
// sample. A query with at most max tuples is returned whole and draws nothing
// from rng.
func SampleTuples(tuples [][]table.RowID, max int, rng *rand.Rand) [][]table.RowID {
	if len(tuples) <= max {
		return tuples
	}
	idx := sample.Uniform(len(tuples), max, rng)
	out := make([][]table.RowID, len(idx))
	for i, j := range idx {
		out[i] = tuples[j]
	}
	return out
}

// TrackedQuery is one query's side of Equation 1 as the tracker sees it.
type TrackedQuery struct {
	// Weight is w(q).
	Weight float64
	// Total is |q(𝒯)|, the number of result rows on the full database.
	Total int
	// Tuples are the tracked result tuples, normalised by Tuples: all of the
	// result, or a SampleTuples draw from it.
	Tuples [][]table.RowID
}

// tupleRef addresses tuple t of tracked query q.
type tupleRef struct{ q, t int }

// CoverIndex is the immutable half of the incremental Equation-1 bookkeeping:
// the tracked queries and, for every base row in one of their tuples, the
// tuples that need it. It is built once per preprocessing or baseline run and
// shared by every Tracker over it.
type CoverIndex struct {
	// Queries are the tracked queries, in the order given to NewCoverIndex.
	Queries   []TrackedQuery
	frameSize int
	refs      map[table.RowID][]tupleRef
}

// NewCoverIndex indexes queries for scoring with frame size frameSize.
func NewCoverIndex(queries []TrackedQuery, frameSize int) *CoverIndex {
	ix := &CoverIndex{Queries: queries, frameSize: frameSize, refs: make(map[table.RowID][]tupleRef)}
	for q := range queries {
		for t, tuple := range queries[q].Tuples {
			for _, id := range tuple {
				ix.refs[id] = append(ix.refs[id], tupleRef{q, t})
			}
		}
	}
	return ix
}

// Tracker maintains, incrementally, how many of each tracked query's tuples
// the current row set covers, so a score never re-executes SQL: adding or
// removing rows costs time proportional to the tuples they appear in. It is
// the reward engine under the RL environments and the score-driven baselines.
// Rows are reference-counted — a row added by two overlapping groups leaves
// the set when both have been removed.
type Tracker struct {
	ix      *CoverIndex
	rowRef  map[table.RowID]int
	missing [][]int // per tracked tuple, rows not yet in the set
	covered []int   // per query, tuples with no missing row
}

// NewTracker returns a tracker over ix holding the empty set.
func (ix *CoverIndex) NewTracker() *Tracker {
	t := &Tracker{
		ix:      ix,
		rowRef:  make(map[table.RowID]int),
		missing: make([][]int, len(ix.Queries)),
		covered: make([]int, len(ix.Queries)),
	}
	for q := range ix.Queries {
		m := make([]int, len(ix.Queries[q].Tuples))
		for ti, tuple := range ix.Queries[q].Tuples {
			m[ti] = len(tuple)
		}
		t.missing[q] = m
	}
	return t
}

// Add puts rows into the set and returns how many were not in it already.
func (t *Tracker) Add(rows []table.RowID) int {
	added := 0
	for _, id := range rows {
		t.rowRef[id]++
		if t.rowRef[id] > 1 {
			continue
		}
		added++
		for _, ref := range t.ix.refs[id] {
			t.missing[ref.q][ref.t]--
			if t.missing[ref.q][ref.t] == 0 {
				t.covered[ref.q]++
			}
		}
	}
	return added
}

// Remove withdraws one reference to each of rows and returns how many left
// the set; a row another Add still holds stays. The rows must have been added.
func (t *Tracker) Remove(rows []table.RowID) int {
	removed := 0
	for _, id := range rows {
		t.rowRef[id]--
		if t.rowRef[id] > 0 {
			continue
		}
		delete(t.rowRef, id)
		removed++
		for _, ref := range t.ix.refs[id] {
			if t.missing[ref.q][ref.t] == 0 {
				t.covered[ref.q]--
			}
			t.missing[ref.q][ref.t]++
		}
	}
	return removed
}

// Has reports whether id is in the set.
func (t *Tracker) Has(id table.RowID) bool { return t.rowRef[id] > 0 }

// Size is the number of distinct rows in the set.
func (t *Tracker) Size() int { return len(t.rowRef) }

// Term is tracked query q's Equation-1 term for the current set.
func (t *Tracker) Term(q int) float64 {
	tq := &t.ix.Queries[q]
	return Term(t.covered[q], len(tq.Tuples), tq.Total, t.ix.frameSize)
}

// Score is Equation 1 over the tracked queries for the current set.
func (t *Tracker) Score() float64 {
	var s float64
	for q := range t.ix.Queries {
		s += t.ix.Queries[q].Weight * t.Term(q)
	}
	return s
}

// Subset materializes the current row set.
func (t *Tracker) Subset() *table.Subset {
	s := table.NewSubset()
	for id := range t.rowRef {
		s.Add(id)
	}
	return s
}
