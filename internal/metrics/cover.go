package metrics

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"asqprl/internal/engine"
	"asqprl/internal/sample"
	"asqprl/internal/sqlparse"
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

// Track executes stmt on db for its lineage alone (engine.LineageContext,
// which builds no output row) and returns it as a tracked query of zero
// weight: Total is the result's cardinality and Tuples its result tuples
// (Tuples), cut down to max by SampleTuples with rng. It is the one lineage
// pass of preprocessing and of the score-driven baselines.
func Track(ctx context.Context, db *table.Database, stmt *sqlparse.Select, max int, rng *rand.Rand) (TrackedQuery, error) {
	res, err := engine.LineageContext(ctx, db, stmt, engine.Options{})
	if err != nil {
		return TrackedQuery{}, err
	}
	return TrackedQuery{Total: res.Count, Tuples: SampleTuples(Tuples(res.Lineage), max, rng)}, nil
}

// Tuples normalises an execution's lineage into result tuples: each tuple is
// the sorted distinct base rows that must all be in the approximation set for
// the result row to appear, and a tuple that repeats is kept once, where it
// first appeared. The tuples share one allocation; lineage is left as it was.
func Tuples(lineage [][]table.RowID) [][]table.RowID {
	n := 0
	for _, rows := range lineage {
		n += len(rows)
	}
	buf := make([]table.RowID, 0, n)
	set := tupleSet{heads: make(map[uint64]int32, len(lineage)), next: make([]int32, 0, len(lineage))}
	out := make([][]table.RowID, 0, len(lineage))
	for _, rows := range lineage {
		at := len(buf)
		tuple := sortDistinct(append(buf, rows...)[at:])
		if set.add(out, tuple) {
			buf = buf[:at+len(tuple)]
			out = append(out, buf[at:len(buf):len(buf)])
		}
	}
	return out
}

// Tuple returns the sorted distinct rows of rows: one result tuple, or the
// union of several, in the form Tuples produces. rows is left as it was.
func Tuple(rows []table.RowID) []table.RowID {
	return sortDistinct(slices.Clone(rows))
}

// sortDistinct orders rows in place by table name, then row, and returns the
// distinct prefix.
func sortDistinct(rows []table.RowID) []table.RowID {
	slices.SortFunc(rows, compareRows)
	return slices.Compact(rows)
}

func compareRows(a, b table.RowID) int {
	if c := strings.Compare(a.Table, b.Table); c != 0 {
		return c
	}
	return cmp.Compare(a.Row, b.Row)
}

// tupleSet recognises a tuple seen before without building a key for it: a
// tuple hashes the position of each row's table among the names met so far
// and the row number, and tuples that share a hash are chained and compared
// row by row.
type tupleSet struct {
	names []string
	heads map[uint64]int32 // hash → the last tuple with it
	next  []int32          // per tuple, the one before it with its hash, or -1
}

// add reports whether tuple is new among kept, the tuples added so far, and
// if so records it as kept's next.
func (s *tupleSet) add(kept [][]table.RowID, tuple []table.RowID) bool {
	h := uint64(0xcbf29ce484222325)
	for _, id := range tuple {
		k := slices.Index(s.names, id.Table)
		if k < 0 {
			k = len(s.names)
			s.names = append(s.names, id.Table)
		}
		h = (h ^ uint64(k)) * 0x9e3779b97f4a7c15
		h = (h ^ uint64(id.Row)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	head, ok := s.heads[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = s.next[i] {
		if slices.Equal(kept[i], tuple) {
			return false
		}
	}
	s.heads[h] = int32(len(s.next))
	s.next = append(s.next, head)
	return true
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
// from rng; a drawn sample is copied into one allocation of its own, so it
// does not keep the whole result's tuples alive.
func SampleTuples(tuples [][]table.RowID, max int, rng *rand.Rand) [][]table.RowID {
	if len(tuples) <= max {
		return tuples
	}
	idx := sample.Uniform(len(tuples), max, rng)
	n := 0
	for _, j := range idx {
		n += len(tuples[j])
	}
	buf := make([]table.RowID, 0, n)
	out := make([][]table.RowID, len(idx))
	for i, j := range idx {
		at := len(buf)
		buf = append(buf, tuples[j]...)
		out[i] = buf[at:len(buf):len(buf)]
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
